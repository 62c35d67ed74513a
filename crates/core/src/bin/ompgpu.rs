//! `ompgpu` — a small driver CLI over the pipeline, for exploring the
//! compiler interactively:
//!
//! ```text
//! ompgpu build   kernel.c [--config dev] [--emit-ir] [--remarks] [--time-passes]
//!                [--telemetry out.json]
//! ompgpu run     kernel.c --kernel name [--config dev]
//!                [--teams N] [--threads N] [--jobs N] [--json]
//!                [--arg buf:f64:LEN[:init] | --arg buf:i64:LEN[:init]
//!                 | --arg i64:VALUE | --arg f64:VALUE | --arg i32:VALUE]
//!                [--dump N] [--time-passes] [--telemetry out.json]
//! ompgpu profile kernel.c --kernel name [--config dev | --all-configs]
//!                [--teams N] [--threads N] [--jobs N] [--arg SPEC]...
//!                [--json] [--trace out.json] [--time-passes]
//! ompgpu profile --proxy NAME [--scale small|bench] [--config dev | --all-configs]
//!                [--jobs N] [--json] [--trace out.json] [--time-passes]
//! ompgpu verify  [--scale small|bench] [--examples DIR] [--jobs N]
//!                [--watchdog SECS] [--telemetry out.json] [FILE.c ...]
//! ompgpu sanitize kernel.c | --proxy NAME | --self-test
//!                [--config CFG | --all-configs] [--scale small|bench]
//!                [--jobs N] [--max-insts N] [--json]
//! ompgpu serve   --socket PATH [--device-cache N] [--access-log PATH]
//!                [--queue N] [--deadline-ms N]
//! ompgpu client  --socket PATH [--retries N] [--ping] [--stats] [--metrics]
//!                [--shutdown]
//! ```
//!
//! Buffer arguments are device allocations initialized per the optional
//! `init` suffix (`zero` — the default — `iota`, or `pseudo`); `--dump N`
//! prints the first N elements of every buffer after the launch. When a
//! source file carries an `// oracle-*:` header (see
//! [`oracle::ExampleSpec`]), `profile` uses it for the kernel name,
//! launch geometry, and arguments unless flags override them.
//!
//! `--jobs N` sets the number of host worker threads the simulator may
//! use to execute independent teams (`0` = auto-detect; the
//! `OMPGPU_JOBS` environment variable is the default). Results — stats
//! and profiles alike — are bit-identical for every setting.
//!
//! `profile` runs the kernel with cycle-attribution profiling enabled
//! and prints a ranked hot-function table, a per-instruction-class
//! breakdown, and a runtime-entry-point cycle table. `--json` emits the
//! profile as JSON on stdout; `--trace FILE` writes a Chrome
//! trace-event timeline (load it in Perfetto or `chrome://tracing`):
//! one track per SM, spans per team and per parallel region in
//! model-cycle time. `--all-configs` profiles the kernel under every
//! configuration of the ablation matrix and prints a side-by-side
//! per-function cycle table (Figure 10 style).
//!
//! `--time-passes` prints per-stage mid-end wall times and IR deltas
//! (on stderr; wall times are host measurements and non-deterministic).
//!
//! `verify` runs the differential-execution oracle: the four proxy
//! benchmarks — plus every `.c` example with an `// oracle-*:` header
//! in `--examples DIR` or listed explicitly — are executed under all
//! six OpenMP-source configurations of the paper's ablation matrix and
//! must produce bit-identical outputs with monotone resource
//! statistics. Every launch runs under a wall-clock watchdog
//! (`--watchdog SECS`, default 60, `0` disables): a hung configuration
//! becomes an ordinary per-configuration failure with a timeout
//! diagnostic instead of stalling the whole matrix.
//!
//! `sanitize` runs the device sanitizer (see `docs/SANITIZER.md`) over
//! a source file with an `// oracle-*:` header, a proxy benchmark, or
//! — with `--self-test` — a built-in fault-injection battery that
//! proves the device degrades gracefully (structured errors, no
//! panics, no wedged workers) under injected allocation failures,
//! traps, and team aborts. Findings are merged in team-id order, so
//! they are bit-identical for every `--jobs` setting.
//!
//! `serve` runs the compile service daemon (see `docs/SERVE.md`): a
//! long-lived session with content-addressed artifact caches, speaking
//! `ompgpu-serve/v1` JSON-lines over a Unix socket. `client` connects
//! to a running daemon, sends the requests named by its flags — or,
//! with no request flags, forwards JSON-lines requests from stdin —
//! prints each response line on stdout, and exits with the highest
//! exit code any response carried.
//!
//! `--telemetry FILE` (on `build`, `run`, and `verify`) enables the
//! span tracer for the invocation and writes an `ompgpu-telemetry/v1`
//! artifact — spans with parent links plus a metrics snapshot — or a
//! Chrome trace-event timeline when FILE ends in `.trace.json` (see
//! `docs/TELEMETRY.md`). Telemetry is off by default and costs one
//! atomic load per instrumentation point when disabled.
//!
//! Exit codes are stable and machine-checkable: `0` success/clean,
//! `1` compile or I/O failure, `2` usage error, `3` simulation or
//! launch failure, `4` oracle divergence, `5` error-severity sanitizer
//! findings, `6` unknown `schema` id under `json-validate`. `ompgpu
//! run --json` prints an `ompgpu-error/v1` JSON object on stdout when
//! the launch fails; `ompgpu sanitize --json` prints an
//! `ompgpu-sanitize/v1` report either way.

use omp_gpu::oracle::{self, ArgSpec, ExampleSpec, VerifyOptions};
use omp_gpu::serve;
use omp_gpu::{
    all_proxies, pipeline, BuildConfig, Device, FaultPlan, KernelStats, LaunchDims, LaunchProfile,
    OptReport, ProfileMode, SanitizeMode, Scale, SimErrorKind, Tier,
};
use std::process::ExitCode;
use std::time::Duration;

/// Exit code for compile/IO failures.
const EXIT_BUILD: u8 = 1;
/// Exit code for usage errors.
const EXIT_USAGE: u8 = 2;
/// Exit code for simulation/launch failures.
const EXIT_SIM: u8 = 3;
/// Exit code for oracle divergence.
const EXIT_DIVERGED: u8 = 4;
/// Exit code for error-severity sanitizer findings.
const EXIT_FINDINGS: u8 = 5;
/// Exit code for artifacts that carry an unknown `schema` id.
const EXIT_SCHEMA: u8 = 6;

/// Schema ids `json-validate` recognizes. Artifacts with a top-level
/// `schema` member outside this list fail with [`EXIT_SCHEMA`];
/// artifacts without one only get the syntax check.
const KNOWN_SCHEMAS: [&str; 8] = [
    "bench_gpusim/v2",
    "ompgpu-access-log/v1",
    "ompgpu-bench-serve/v1",
    "ompgpu-error/v1",
    "ompgpu-profile/v1",
    "ompgpu-sanitize/v1",
    "ompgpu-serve/v1",
    "ompgpu-telemetry/v1",
];

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  ompgpu build <file.c> [--config CFG] [--emit-ir] [--remarks] [--time-passes]\n             \
         [--telemetry FILE]\n  \
         ompgpu run <file.c> --kernel NAME [--config CFG] [--teams N] [--threads N]\n             \
         [--jobs N] [--tier interp|compiled] [--json] [--arg SPEC]...\n             \
         [--dump N] [--time-passes] [--telemetry FILE]\n  \
         ompgpu profile <file.c> [--kernel NAME] [--config CFG | --all-configs]\n             \
         [--teams N] [--threads N] [--jobs N] [--arg SPEC]...\n             \
         [--json] [--trace FILE] [--time-passes]\n  \
         ompgpu profile --proxy NAME [--scale small|bench] [--config CFG | --all-configs]\n             \
         [--jobs N] [--json] [--trace FILE] [--time-passes]\n  \
         ompgpu verify [--scale small|bench] [--examples DIR] [--jobs N]\n             \
         [--watchdog SECS] [--tier interp|compiled] [--telemetry FILE]\n             \
         [FILE.c ...]\n  \
         ompgpu sanitize <file.c> | --proxy NAME | --self-test\n             \
         [--config CFG | --all-configs] [--scale small|bench]\n             \
         [--jobs N] [--max-insts N] [--json]\n  \
         ompgpu serve --socket PATH [--device-cache N] [--access-log PATH]\n             \
         [--queue N] [--deadline-ms N]\n  \
         ompgpu client --socket PATH [--retries N] [--ping] [--stats] [--metrics]\n             \
         [--shutdown] (no request flags: forward JSON-lines requests from stdin)\n  \
         ompgpu json-validate <file.json>\n\n\
         CFG:  llvm12 | noopt | h2s2 | h2s2rtc | h2s2rtccsm | dev (default) | cuda\n\
         SPEC: buf:f64:LEN[:init] | buf:i64:LEN[:init] | i64:V | i32:V | f64:V\n      \
         (init: zero | iota | pseudo; default zero)\n\
         --jobs N: simulator worker threads for independent teams (0 = auto)\n\
         --max-insts N: per-thread dynamic instruction budget (runaway guard;\n      \
         the OMPGPU_MAX_INSTS environment variable is the default)\n\
         --watchdog SECS: wall-clock budget per launch (0 = off)\n\
         --tier interp|compiled: simulator execution tier (results are\n      \
         bit-identical; the OMPGPU_TIER environment variable is the default)\n\
         --telemetry FILE: write spans + metrics as ompgpu-telemetry/v1\n      \
         (or a Chrome trace when FILE ends in .trace.json)\n\n\
         exit codes: 0 ok/clean, 1 compile/IO, 2 usage, 3 simulation,\n      \
         4 oracle divergence, 5 sanitizer findings, 6 unknown schema id,\n      \
         7 deadline exceeded, 8 overloaded (retry), 9 isolated panic"
    );
    ExitCode::from(EXIT_USAGE)
}

fn verify_main(args: &[String]) -> ExitCode {
    let mut scale = Scale::Small;
    let mut jobs: Option<u32> = None;
    let mut watchdog_secs: u64 = 60;
    let mut tier: Option<Tier> = None;
    let mut telemetry: Option<String> = None;
    let mut dirs: Vec<String> = Vec::new();
    let mut files: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => match it.next().map(String::as_str) {
                Some("small") => scale = Scale::Small,
                Some("bench") => scale = Scale::Bench,
                _ => return usage(),
            },
            "--telemetry" => match it.next() {
                Some(p) => telemetry = Some(p.clone()),
                None => return usage(),
            },
            "--jobs" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => jobs = Some(n),
                None => return usage(),
            },
            "--watchdog" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => watchdog_secs = n,
                None => return usage(),
            },
            "--tier" => match it.next().and_then(|s| Tier::parse(s)) {
                Some(t) => tier = Some(t),
                None => return usage(),
            },
            "--examples" => match it.next() {
                Some(d) => dirs.push(d.clone()),
                None => return usage(),
            },
            f if !f.starts_with('-') => files.push(f.to_string()),
            _ => return usage(),
        }
    }
    let opts = VerifyOptions {
        jobs,
        watchdog: (watchdog_secs > 0).then(|| Duration::from_secs(watchdog_secs)),
        tier,
    };
    if telemetry.is_some() {
        telemetry_begin();
    }
    let mut report = oracle::verify_proxies_opts(scale, opts);
    for dir in &dirs {
        match oracle::verify_examples_dir_opts(std::path::Path::new(dir), opts) {
            Ok(r) => report.cases.extend(r.cases),
            Err(e) => {
                eprintln!("ompgpu verify: {e}");
                return ExitCode::from(EXIT_BUILD);
            }
        }
    }
    for file in &files {
        let source = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("ompgpu verify: cannot read {file}: {e}");
                return ExitCode::from(EXIT_BUILD);
            }
        };
        let name = std::path::Path::new(file)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| file.clone());
        report
            .cases
            .push(oracle::verify_example_opts(&name, &source, opts));
    }
    print!("{}", report.render());
    let (pass, total) = (
        report.cases.iter().filter(|c| c.passed()).count(),
        report.cases.len(),
    );
    println!("{pass}/{total} cases passed");
    if let Some(tpath) = &telemetry {
        let mut reg = omp_telemetry::MetricsRegistry::new();
        reg.counter_add("verify.cases", total as u64);
        reg.counter_add("verify.passed", pass as u64);
        reg.counter_add("verify.failed", (total - pass) as u64);
        if let Err(e) = telemetry_write(tpath, &reg) {
            eprintln!("ompgpu verify: {e}");
            return ExitCode::from(EXIT_BUILD);
        }
    }
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_DIVERGED)
    }
}

// ---------------------------------------------------------------------
// ompgpu sanitize
// ---------------------------------------------------------------------

/// The OpenMP-source configurations `--all-configs` sweeps (CUDA-style
/// builds compile a different source and are not part of the ablation).
const OPENMP_CONFIGS: [BuildConfig; 6] = [
    BuildConfig::Llvm12Baseline,
    BuildConfig::NoOpenmpOpt,
    BuildConfig::H2S2,
    BuildConfig::H2S2Rtc,
    BuildConfig::H2S2RtcCsm,
    BuildConfig::LlvmDev,
];

fn sanitize_main(args: &[String]) -> ExitCode {
    let mut path: Option<String> = None;
    let mut proxy: Option<String> = None;
    let mut self_test = false;
    let mut scale = Scale::Small;
    let mut config = BuildConfig::LlvmDev;
    let mut all_configs = false;
    let mut jobs: Option<u32> = None;
    let mut max_insts: Option<u64> = None;
    let mut json = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--proxy" => proxy = it.next().cloned(),
            "--self-test" => self_test = true,
            "--scale" => match it.next().map(String::as_str) {
                Some("small") => scale = Scale::Small,
                Some("bench") => scale = Scale::Bench,
                _ => return usage(),
            },
            "--config" => match it.next().and_then(|s| BuildConfig::from_cli_name(s)) {
                Some(c) => config = c,
                None => return usage(),
            },
            "--all-configs" => all_configs = true,
            "--jobs" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => jobs = Some(n),
                None => return usage(),
            },
            "--max-insts" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => max_insts = Some(n),
                None => return usage(),
            },
            "--json" => json = true,
            f if !f.starts_with('-') && path.is_none() => path = Some(f.to_string()),
            other => {
                eprintln!("ompgpu sanitize: unknown flag {other}");
                return usage();
            }
        }
    }
    if self_test {
        if path.is_some() || proxy.is_some() {
            eprintln!("ompgpu sanitize: --self-test takes no subject");
            return ExitCode::from(EXIT_USAGE);
        }
        return sanitize_self_test(jobs);
    }
    let opts = pipeline::SanitizeOptions {
        jobs,
        fault: FaultPlan::default(),
        watchdog: Some(Duration::from_secs(60)),
        max_insts,
    };
    let configs: Vec<BuildConfig> = if all_configs {
        OPENMP_CONFIGS.to_vec()
    } else {
        vec![config]
    };

    let (subject, outcomes): (String, Vec<pipeline::SanitizeOutcome>) = if let Some(name) = proxy {
        if path.is_some() {
            eprintln!("ompgpu sanitize: give either a source file or --proxy, not both");
            return ExitCode::from(EXIT_USAGE);
        }
        let proxies = all_proxies(scale);
        let Some(app) = proxies
            .iter()
            .find(|p| p.name().eq_ignore_ascii_case(&name))
        else {
            let known: Vec<&str> = proxies.iter().map(|p| p.name()).collect();
            eprintln!(
                "ompgpu sanitize: unknown proxy {name:?} (known: {})",
                known.join(", ")
            );
            return ExitCode::from(EXIT_USAGE);
        };
        let outcomes = configs
            .iter()
            .map(|&c| pipeline::sanitize_proxy(app.as_ref(), c, &opts))
            .collect();
        (app.name().to_string(), outcomes)
    } else {
        let Some(path) = path else {
            eprintln!("ompgpu sanitize: need a source file, --proxy NAME, or --self-test");
            return usage();
        };
        let source = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("ompgpu sanitize: cannot read {path}: {e}");
                return ExitCode::from(EXIT_BUILD);
            }
        };
        let outcomes = configs
            .iter()
            .map(|&c| pipeline::sanitize_source(&source, c, &opts))
            .collect();
        (path, outcomes)
    };

    if json {
        println!("{}", pipeline::sanitize_report_json(&subject, &outcomes));
    } else {
        println!("sanitize {subject}:");
        for o in &outcomes {
            print!("{}", o.render());
        }
        let errors: usize = outcomes.iter().map(|o| o.error_findings()).sum();
        let notes: usize = outcomes
            .iter()
            .map(|o| o.findings.len() - o.error_findings())
            .sum();
        println!(
            "{} configuration(s), {errors} error finding(s), {notes} note(s)",
            outcomes.len()
        );
    }
    if outcomes.iter().any(|o| o.error_findings() > 0) {
        ExitCode::from(EXIT_FINDINGS)
    } else if outcomes.iter().any(|o| o.error.is_some()) {
        ExitCode::from(EXIT_SIM)
    } else if outcomes.iter().any(|o| o.setup_error.is_some()) {
        ExitCode::from(EXIT_BUILD)
    } else {
        ExitCode::SUCCESS
    }
}

/// A tiny kernel that globalizes per-dispatch capture structs when the
/// mid-end does not promote them — enough surface for every injected
/// fault to land on.
const SELF_TEST_SRC: &str = r#"
void counted(double* a, long n) {
  #pragma omp target teams distribute
  for (long b = 0; b < n; b++) {
    double tv = (double)b;
    #pragma omp parallel for
    for (long t = 0; t < 4; t++) {
      a[b * 4 + t] = tv;
    }
  }
}
"#;

/// Built-in fault-injection battery: every scenario must degrade into a
/// structured error (or a sanitizer note) — no panic, no hang, and the
/// same outcome for every worker-thread count.
fn sanitize_self_test(jobs: Option<u32>) -> ExitCode {
    let (module, _) = match pipeline::build(SELF_TEST_SRC, BuildConfig::NoOpenmpOpt) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("ompgpu sanitize --self-test: build failed: {e}");
            return ExitCode::from(EXIT_BUILD);
        }
    };
    let dims = LaunchDims {
        teams: Some(4),
        threads: Some(4),
    };
    type Scenario = (&'static str, FaultPlan, fn(&SimErrorKind) -> bool);
    let scenarios: [Scenario; 3] = [
        (
            "malloc failure falls out as a structured memory error",
            FaultPlan {
                fail_alloc_after: Some(0),
                ..FaultPlan::default()
            },
            |k| matches!(k, SimErrorKind::Mem(_)),
        ),
        (
            "trap at the Nth dynamic instruction",
            FaultPlan {
                trap_at_inst: Some(20),
                ..FaultPlan::default()
            },
            |k| matches!(k, SimErrorKind::FaultInjected(_)),
        ),
        (
            "single-team abort",
            FaultPlan {
                abort_team: Some(2),
                ..FaultPlan::default()
            },
            |k| matches!(k, SimErrorKind::FaultInjected(_)),
        ),
    ];
    let mut failed = 0usize;
    for (what, plan, expect) in &scenarios {
        // Run each scenario sequentially and in parallel: the injected
        // outcome must be byte-identical across worker-thread counts.
        let mut rendered: Vec<String> = Vec::new();
        for run_jobs in [1, jobs.unwrap_or(4).max(2)] {
            let mut dev = match Device::new(&module, Default::default()) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("FAIL {what}: device setup failed: {e}");
                    failed += 1;
                    continue;
                }
            };
            dev.set_jobs(run_jobs);
            dev.set_fault_plan(plan.clone());
            let a = match dev.alloc_f64(&[0.0; 16]) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("FAIL {what}: alloc failed: {e}");
                    failed += 1;
                    continue;
                }
            };
            match dev.launch(
                "counted",
                &[omp_gpu::RtVal::Ptr(a), omp_gpu::RtVal::I64(4)],
                dims,
            ) {
                Ok(_) => {
                    eprintln!("FAIL {what}: launch unexpectedly succeeded (jobs {run_jobs})");
                    failed += 1;
                }
                Err(e) if expect(&e.kind) => rendered.push(e.to_string()),
                Err(e) => {
                    eprintln!("FAIL {what}: wrong error kind (jobs {run_jobs}): {e}");
                    failed += 1;
                }
            }
        }
        if rendered.len() == 2 && rendered[0] != rendered[1] {
            eprintln!(
                "FAIL {what}: error differs across --jobs:\n  jobs 1: {}\n  jobs N: {}",
                rendered[0], rendered[1]
            );
            failed += 1;
        } else if rendered.len() == 2 {
            println!("PASS {what}: {}", rendered[0]);
        }
    }
    // A capped shared stack must degrade into heap fallback, visible as
    // a sanitizer note — not an error.
    {
        let what = "shared-stack exhaustion falls back to the device heap";
        let mut dev = match Device::new(&module, Default::default()) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("FAIL {what}: device setup failed: {e}");
                return ExitCode::from(EXIT_SIM);
            }
        };
        dev.set_sanitize(SanitizeMode::On);
        dev.set_fault_plan(FaultPlan {
            shared_stack_limit: Some(0),
            ..FaultPlan::default()
        });
        if let Some(j) = jobs {
            dev.set_jobs(j);
        }
        match dev.alloc_f64(&[0.0; 16]).and_then(|a| {
            dev.launch_checked(
                "counted",
                &[omp_gpu::RtVal::Ptr(a), omp_gpu::RtVal::I64(4)],
                dims,
            )
        }) {
            Ok((_, findings)) => {
                let fallbacks = findings
                    .iter()
                    .filter(|f| f.kind == omp_gpu::FindingKind::SharedStackFallback)
                    .count();
                if fallbacks > 0 {
                    println!("PASS {what}: {fallbacks} fallback note(s)");
                } else {
                    eprintln!("FAIL {what}: no shared-stack-fallback note recorded");
                    failed += 1;
                }
            }
            Err(e) => {
                eprintln!("FAIL {what}: launch failed instead of degrading: {e}");
                failed += 1;
            }
        }
    }
    if failed == 0 {
        println!("self-test passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("self-test: {failed} scenario(s) failed");
        ExitCode::from(EXIT_SIM)
    }
}

// ---------------------------------------------------------------------
// ompgpu serve / client
// ---------------------------------------------------------------------

/// Prints a structured (envelope-shaped) startup error on stdout and a
/// human-readable line on stderr, then exits with `EXIT_USAGE`. Startup
/// failures are machine-readable the same way request failures are.
fn serve_startup_error(message: &str) -> ExitCode {
    let mut w = omp_json::JsonWriter::with_capacity(192);
    w.begin_object();
    w.key("schema").string(serve::SCHEMA);
    w.key("ok").bool(false);
    w.key("exit_code").u64(EXIT_USAGE as u64);
    w.key("error").begin_object();
    w.key("message").string(message);
    w.end_object();
    w.end_object();
    println!("{}", w.finish());
    eprintln!("ompgpu serve: {message}");
    ExitCode::from(EXIT_USAGE)
}

fn serve_main(args: &[String]) -> ExitCode {
    let mut socket: Option<String> = None;
    let mut device_cache = serve::DEFAULT_DEVICE_CAPACITY;
    let mut access_log: Option<String> = None;
    let mut queue: Option<usize> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => match it.next() {
                Some(p) => socket = Some(p.clone()),
                None => return usage(),
            },
            "--device-cache" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => device_cache = n,
                None => return usage(),
            },
            "--access-log" => match it.next() {
                Some(p) => access_log = Some(p.clone()),
                None => return usage(),
            },
            "--queue" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => queue = Some(n),
                None => return usage(),
            },
            "--deadline-ms" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => deadline_ms = Some(n),
                None => return usage(),
            },
            other => {
                eprintln!("ompgpu serve: unknown flag {other}");
                return usage();
            }
        }
    }
    let Some(socket) = socket else {
        eprintln!("ompgpu serve: --socket PATH is required");
        return usage();
    };
    let mut session = match serve::Session::try_new(device_cache) {
        Ok(s) => s,
        Err(e) => return serve_startup_error(&e),
    };
    if let Some(n) = queue {
        session.set_queue_capacity(n);
    }
    if let Some(ms) = deadline_ms {
        session.set_default_deadline_ms(ms);
    }
    if let Some(path) = &access_log {
        if let Err(e) = session.set_access_log(std::path::Path::new(path)) {
            eprintln!("ompgpu serve: {e}");
            return ExitCode::from(EXIT_BUILD);
        }
    }
    match serve::serve_unix(std::path::Path::new(&socket), session) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ompgpu serve: {e}");
            ExitCode::from(EXIT_BUILD)
        }
    }
}

fn client_main(args: &[String]) -> ExitCode {
    use std::io::{BufRead, BufReader, Write as _};
    use std::os::unix::net::UnixStream;
    let mut socket: Option<String> = None;
    let mut requests: Vec<String> = Vec::new();
    let mut retries: u32 = 0;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => match it.next() {
                Some(p) => socket = Some(p.clone()),
                None => return usage(),
            },
            "--retries" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => retries = n,
                None => return usage(),
            },
            "--ping" => requests.push("{\"op\":\"ping\"}".to_string()),
            "--stats" => requests.push("{\"op\":\"stats\"}".to_string()),
            "--metrics" => requests.push("{\"op\":\"metrics\"}".to_string()),
            "--shutdown" => requests.push("{\"op\":\"shutdown\"}".to_string()),
            other => {
                eprintln!("ompgpu client: unknown flag {other}");
                return usage();
            }
        }
    }
    let Some(socket) = socket else {
        eprintln!("ompgpu client: --socket PATH is required");
        return usage();
    };
    if requests.is_empty() {
        for line in std::io::stdin().lock().lines() {
            match line {
                Ok(l) => {
                    if !l.trim().is_empty() {
                        requests.push(l);
                    }
                }
                Err(e) => {
                    eprintln!("ompgpu client: stdin read failed: {e}");
                    return ExitCode::from(EXIT_BUILD);
                }
            }
        }
    }
    let stream = match UnixStream::connect(&socket) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ompgpu client: cannot connect to {socket}: {e}");
            return ExitCode::from(EXIT_BUILD);
        }
    };
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(e) => {
            eprintln!("ompgpu client: {e}");
            return ExitCode::from(EXIT_BUILD);
        }
    };
    let mut writer = stream;
    let mut worst: u8 = 0;
    for req in &requests {
        // A response with the overload exit code is retried (when
        // --retries allows) with capped exponential backoff seeded by
        // the server's retry_after_ms hint; only the final response of
        // a request is printed.
        let mut attempt: u32 = 0;
        let resp = loop {
            if writer
                .write_all(req.as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .and_then(|()| writer.flush())
                .is_err()
            {
                eprintln!("ompgpu client: connection closed while sending");
                return ExitCode::from(EXIT_SIM);
            }
            let mut resp = String::new();
            match reader.read_line(&mut resp) {
                Ok(0) | Err(_) => {
                    eprintln!("ompgpu client: connection closed before a response arrived");
                    return ExitCode::from(EXIT_SIM);
                }
                Ok(_) => {}
            }
            let parsed = omp_json::parse(resp.trim_end()).ok();
            let code = parsed
                .as_ref()
                .and_then(|v| v.get("exit_code"))
                .and_then(omp_json::Value::as_u64);
            if code != Some(serve::EXIT_OVERLOAD as u64) || attempt >= retries {
                break resp;
            }
            let base = parsed
                .as_ref()
                .and_then(|v| v.get("error"))
                .and_then(|e| e.get("retry_after_ms"))
                .and_then(omp_json::Value::as_u64)
                .unwrap_or(serve::RETRY_AFTER_MS);
            let backoff = (base << attempt.min(5)).min(1_000);
            std::thread::sleep(std::time::Duration::from_millis(backoff));
            attempt += 1;
        };
        print!("{resp}");
        if let Ok(v) = omp_json::parse(resp.trim_end()) {
            if let Some(code) = v.get("exit_code").and_then(omp_json::Value::as_u64) {
                worst = worst.max(code.min(u8::MAX as u64) as u8);
            }
        }
    }
    ExitCode::from(worst)
}

// ---------------------------------------------------------------------
// --telemetry support
// ---------------------------------------------------------------------

/// Turns the span tracer on for a `--telemetry PATH` invocation.
fn telemetry_begin() {
    omp_telemetry::clear_spans();
    omp_telemetry::set_enabled(true);
}

/// Drains the tracer and writes the telemetry artifact: a Chrome
/// trace-event envelope when `path` ends in `.trace.json` (load it in
/// Perfetto or `chrome://tracing`), otherwise the `ompgpu-telemetry/v1`
/// artifact bundling the spans with a metrics-registry snapshot.
fn telemetry_write(path: &str, metrics: &omp_telemetry::MetricsRegistry) -> Result<(), String> {
    omp_telemetry::set_enabled(false);
    let spans = omp_telemetry::take_spans();
    let text = if path.ends_with(".trace.json") {
        omp_telemetry::chrome_trace(&spans)
    } else {
        omp_telemetry::telemetry_json(&spans, metrics)
    };
    debug_assert!(omp_json::validate(&text).is_ok());
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

// ---------------------------------------------------------------------
// ompgpu json-validate
// ---------------------------------------------------------------------

/// Shape check for schema-bearing artifacts beyond plain JSON syntax.
fn check_artifact_shape(value: &omp_json::Value, schema: &str) -> Result<(), String> {
    match schema {
        "ompgpu-telemetry/v1" => {
            if value
                .get("spans")
                .and_then(omp_json::Value::as_array)
                .is_none()
            {
                return Err("telemetry artifact lacks a spans array".to_string());
            }
            let metrics = value
                .get("metrics")
                .ok_or_else(|| "telemetry artifact lacks a metrics object".to_string())?;
            for section in ["counters", "gauges", "histograms"] {
                if metrics
                    .get(section)
                    .and_then(omp_json::Value::as_object)
                    .is_none()
                {
                    return Err(format!("telemetry metrics lack the {section} object"));
                }
            }
            Ok(())
        }
        "ompgpu-access-log/v1" => {
            for key in [
                "ts_micros",
                "op",
                "ok",
                "queue_micros",
                "service_micros",
                "bytes",
            ] {
                if value.get(key).is_none() {
                    return Err(format!("access-log record lacks the {key} member"));
                }
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Strict check of a JSON artifact (e.g. the committed
/// BENCH_gpusim.json, a telemetry trace, or a serve access log) with
/// the in-tree parser CI relies on. JSON-lines artifacts — one object
/// per line, like the access log — are validated record by record.
/// Known `schema` ids additionally get a shape check; unknown ids fail
/// with exit code [`EXIT_SCHEMA`].
fn json_validate_main(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    let text = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ompgpu: cannot read {path}: {e}");
            return ExitCode::from(EXIT_BUILD);
        }
    };
    let values: Vec<(usize, omp_json::Value)> = match omp_json::parse(&text) {
        Ok(v) => vec![(0, v)],
        Err(whole_file_err) => {
            // Not a single document: accept JSON-lines (every non-empty
            // line its own object), else report the whole-file error.
            let mut records = Vec::new();
            for (i, line) in text.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                match omp_json::parse(line) {
                    Ok(v) => records.push((i + 1, v)),
                    Err(_) => {
                        eprintln!("ompgpu: {path}: invalid JSON: {whole_file_err}");
                        return ExitCode::from(EXIT_BUILD);
                    }
                }
            }
            if records.len() < 2 {
                eprintln!("ompgpu: {path}: invalid JSON: {whole_file_err}");
                return ExitCode::from(EXIT_BUILD);
            }
            records
        }
    };
    let mut schemas: Vec<&str> = Vec::new();
    for (line_no, value) in &values {
        let at = if *line_no == 0 {
            String::new()
        } else {
            format!(" (line {line_no})")
        };
        if let Some(schema) = value.get("schema").and_then(omp_json::Value::as_str) {
            if !KNOWN_SCHEMAS.contains(&schema) {
                eprintln!("ompgpu: {path}{at}: unknown schema id {schema:?}");
                return ExitCode::from(EXIT_SCHEMA);
            }
            if let Err(e) = check_artifact_shape(value, schema) {
                eprintln!("ompgpu: {path}{at}: {e}");
                return ExitCode::from(EXIT_BUILD);
            }
            if !schemas.contains(&schema) {
                schemas.push(schema);
            }
        }
    }
    match schemas.as_slice() {
        [] => println!("{path}: valid JSON"),
        s => println!("{path}: valid JSON ({})", s.join(", ")),
    }
    ExitCode::SUCCESS
}

fn print_time_passes(report: Option<&OptReport>) {
    match report {
        Some(r) => eprint!("{}", pipeline::render_pass_timings(&r.pass_timings)),
        None => eprint!("{}", pipeline::render_pass_timings(&[])),
    }
}

/// Per-team cycle spread of a launch: `(min, median, max)`. The median
/// is the lower-middle element for even team counts.
fn team_spread(team_cycles: &[u64]) -> Option<(u64, u64, u64)> {
    if team_cycles.is_empty() {
        return None;
    }
    let mut v = team_cycles.to_vec();
    v.sort_unstable();
    Some((v[0], v[(v.len() - 1) / 2], v[v.len() - 1]))
}

// ---------------------------------------------------------------------
// ompgpu profile
// ---------------------------------------------------------------------

/// One profiled launch: the statistics, the profile, and the optimizer
/// report of the build that produced it.
struct Profiled {
    stats: KernelStats,
    profile: LaunchProfile,
    report: Option<OptReport>,
}

/// Profiles `kernel` of a source file under one configuration.
fn profile_file(
    source: &str,
    kernel: &str,
    dims: LaunchDims,
    specs: &[ArgSpec],
    config: BuildConfig,
    jobs: Option<u32>,
) -> Result<Profiled, String> {
    let (module, report) = pipeline::build(source, config).map_err(|e| e.to_string())?;
    let mut dev = Device::new(&module, Default::default()).map_err(|e| e.to_string())?;
    dev.set_profile(ProfileMode::On);
    if let Some(j) = jobs {
        dev.set_jobs(j);
    }
    let (args, _buffers) = oracle::materialize_args(&mut dev, specs)?;
    let (stats, profile) = dev
        .launch_plan_profiled(kernel, &args, dims)
        .map_err(|e| format!("launch failed: {e}"))?;
    let profile = profile.expect("profiling was enabled");
    Ok(Profiled {
        stats,
        profile,
        report,
    })
}

/// Profiles one proxy application under one configuration.
fn profile_proxy_config(
    name: &str,
    scale: Scale,
    config: BuildConfig,
    jobs: Option<u32>,
) -> Result<Profiled, String> {
    let proxies = all_proxies(scale);
    let app = proxies
        .iter()
        .find(|p| p.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            let known: Vec<&str> = proxies.iter().map(|p| p.name()).collect();
            format!("unknown proxy {name:?} (known: {})", known.join(", "))
        })?;
    let run = pipeline::profile_proxy(app.as_ref(), config, jobs);
    match (run.outcome.stats, run.profile) {
        (Some(stats), Some(profile)) => Ok(Profiled {
            stats,
            profile,
            report: run.outcome.report,
        }),
        _ => Err(run
            .outcome
            .error
            .unwrap_or_else(|| "launch produced no profile".into())),
    }
}

/// Renders the `--all-configs` ablation view: a Figure-10-style summary
/// per configuration plus a side-by-side exclusive-cycle table per
/// function.
fn render_ablation(results: &[(BuildConfig, Result<Profiled, String>)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("ablation summary:\n");
    let _ = writeln!(
        out,
        "  {:<12} {:>12} {:>10} {:>6} {:>12}",
        "CONFIG", "CYCLES", "SMEM B", "REGS", "INSTS"
    );
    for (config, r) in results {
        match r {
            Ok(p) => {
                let _ = writeln!(
                    out,
                    "  {:<12} {:>12} {:>10} {:>6} {:>12}",
                    config.cli_name(),
                    p.stats.cycles,
                    p.stats.shared_mem_bytes,
                    p.stats.registers,
                    p.stats.instructions
                );
            }
            Err(e) => {
                let _ = writeln!(out, "  {:<12} failed: {}", config.cli_name(), e);
            }
        }
    }
    // Union of profiled functions, in first-seen hot order across the
    // configurations (so the fully optimized column drives the ranking
    // of functions it still contains).
    let mut names: Vec<String> = Vec::new();
    for (_, r) in results.iter().rev() {
        if let Ok(p) = r {
            for f in p.profile.hot_functions() {
                if !names.contains(&f.name) {
                    names.push(f.name.clone());
                }
            }
        }
    }
    out.push_str("\nexclusive cycles per function (- = not present):\n");
    let mut header = format!("  {:<28}", "FUNCTION");
    for (config, _) in results {
        let _ = write!(header, " {:>12}", config.cli_name());
    }
    out.push_str(&header);
    out.push('\n');
    for name in &names {
        let mut row = format!("  {:<28}", name);
        for (_, r) in results {
            let cell = match r {
                Ok(p) => p
                    .profile
                    .functions
                    .iter()
                    .find(|f| &f.name == name)
                    .map(|f| f.exclusive_cycles.to_string())
                    .unwrap_or_else(|| "-".into()),
                Err(_) => "-".into(),
            };
            let _ = write!(row, " {:>12}", cell);
        }
        out.push_str(&row);
        out.push('\n');
    }
    out
}

/// Writes and validates the Chrome trace-event artifact.
fn write_trace(path: &str, profile: &LaunchProfile) -> Result<(), String> {
    let trace = profile.chrome_trace();
    omp_json::validate(&trace).map_err(|e| format!("internal error: invalid trace JSON: {e}"))?;
    std::fs::write(path, &trace).map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(())
}

fn profile_main(args: &[String]) -> ExitCode {
    let mut path: Option<String> = None;
    let mut proxy: Option<String> = None;
    let mut scale = Scale::Small;
    let mut config = BuildConfig::LlvmDev;
    let mut all_configs = false;
    let mut kernel: Option<String> = None;
    let mut teams: Option<u32> = None;
    let mut threads: Option<u32> = None;
    let mut jobs: Option<u32> = None;
    let mut specs: Vec<ArgSpec> = Vec::new();
    let mut trace: Option<String> = None;
    let mut json = false;
    let mut time_passes = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--proxy" => proxy = it.next().cloned(),
            "--scale" => match it.next().map(String::as_str) {
                Some("small") => scale = Scale::Small,
                Some("bench") => scale = Scale::Bench,
                _ => return usage(),
            },
            "--config" => match it.next().and_then(|s| BuildConfig::from_cli_name(s)) {
                Some(c) => config = c,
                None => return usage(),
            },
            "--all-configs" => all_configs = true,
            "--kernel" => kernel = it.next().cloned(),
            "--teams" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => teams = Some(n),
                None => return usage(),
            },
            "--threads" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => threads = Some(n),
                None => return usage(),
            },
            "--jobs" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => jobs = Some(n),
                None => return usage(),
            },
            "--trace" => trace = it.next().cloned(),
            "--json" => json = true,
            "--time-passes" => time_passes = true,
            "--arg" => match it.next().and_then(|s| ArgSpec::parse_colon(s)) {
                Some(s) => specs.push(s),
                None => return usage(),
            },
            f if !f.starts_with('-') && path.is_none() => path = Some(f.to_string()),
            other => {
                eprintln!("ompgpu profile: unknown flag {other}");
                return usage();
            }
        }
    }
    if all_configs && (json || trace.is_some()) {
        eprintln!(
            "ompgpu profile: --json/--trace need a single configuration (drop --all-configs)"
        );
        return ExitCode::from(2);
    }

    // Resolve the subject into a closure profiling it under one config.
    let subject: Box<dyn Fn(BuildConfig) -> Result<Profiled, String>> = if let Some(name) = proxy {
        if path.is_some() {
            eprintln!("ompgpu profile: give either a source file or --proxy, not both");
            return ExitCode::from(2);
        }
        Box::new(move |c| profile_proxy_config(&name, scale, c, jobs))
    } else {
        let Some(path) = path else {
            eprintln!("ompgpu profile: need a source file or --proxy NAME");
            return usage();
        };
        let source = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("ompgpu: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        // Fall back to the file's `// oracle-*:` header for anything the
        // flags left unspecified.
        if let Ok(spec) = ExampleSpec::parse(&source) {
            kernel = kernel.or(Some(spec.kernel));
            teams = teams.or(spec.teams);
            threads = threads.or(spec.threads);
            if specs.is_empty() {
                specs = spec.args;
            }
        }
        let Some(kernel) = kernel else {
            eprintln!(
                "ompgpu profile: --kernel NAME is required \
                 (no `// oracle-kernel:` header in {path})"
            );
            return ExitCode::from(2);
        };
        let dims = LaunchDims { teams, threads };
        Box::new(move |c| profile_file(&source, &kernel, dims, &specs, c, jobs))
    };

    if all_configs {
        // CUDA-style builds compile a different source; the ablation view
        // covers the OpenMP-source configurations the paper ablates.
        let configs = [
            BuildConfig::Llvm12Baseline,
            BuildConfig::NoOpenmpOpt,
            BuildConfig::H2S2,
            BuildConfig::H2S2Rtc,
            BuildConfig::H2S2RtcCsm,
            BuildConfig::LlvmDev,
        ];
        let results: Vec<(BuildConfig, Result<Profiled, String>)> =
            configs.iter().map(|&c| (c, subject(c))).collect();
        if time_passes {
            for (config, r) in &results {
                if let Ok(p) = r {
                    eprintln!("[{}]", config.label());
                    print_time_passes(p.report.as_ref());
                }
            }
        }
        print!("{}", render_ablation(&results));
        if results.iter().any(|(_, r)| r.is_err()) {
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    let profiled = match subject(config) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("ompgpu profile: [{}] {e}", config.label());
            return ExitCode::FAILURE;
        }
    };
    if time_passes {
        print_time_passes(profiled.report.as_ref());
    }
    if let Some(path) = &trace {
        if let Err(e) = write_trace(path, &profiled.profile) {
            eprintln!("ompgpu profile: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("trace written to {path} (load in Perfetto or chrome://tracing)");
    }
    if json {
        println!("{}", profiled.profile.to_json());
    } else {
        print!("{}", profiled.profile.render());
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = args.first() else {
        return usage();
    };
    if mode == "verify" {
        return verify_main(&args[1..]);
    }
    if mode == "profile" {
        return profile_main(&args[1..]);
    }
    if mode == "sanitize" {
        return sanitize_main(&args[1..]);
    }
    if mode == "serve" {
        return serve_main(&args[1..]);
    }
    if mode == "client" {
        return client_main(&args[1..]);
    }
    if mode == "json-validate" {
        return json_validate_main(&args[1..]);
    }
    let Some(path) = args.get(1) else {
        return usage();
    };
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ompgpu: cannot read {path}: {e}");
            return ExitCode::from(EXIT_BUILD);
        }
    };
    let mut config = BuildConfig::LlvmDev;
    let mut emit_ir = false;
    let mut show_remarks = false;
    let mut time_passes = false;
    let mut json = false;
    let mut kernel: Option<String> = None;
    let mut teams: Option<u32> = None;
    let mut threads: Option<u32> = None;
    let mut jobs: Option<u32> = None;
    let mut max_insts: Option<u64> = None;
    let mut tier: Option<Tier> = None;
    let mut specs: Vec<ArgSpec> = Vec::new();
    let mut dump = 0usize;
    let mut telemetry: Option<String> = None;
    let mut it = args.iter().skip(2);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--config" => match it.next().and_then(|s| BuildConfig::from_cli_name(s)) {
                Some(c) => config = c,
                None => return usage(),
            },
            "--telemetry" => match it.next() {
                Some(p) => telemetry = Some(p.clone()),
                None => return usage(),
            },
            "--emit-ir" => emit_ir = true,
            "--remarks" => show_remarks = true,
            "--time-passes" => time_passes = true,
            "--json" => json = true,
            "--kernel" => kernel = it.next().cloned(),
            "--teams" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => teams = Some(n),
                None => return usage(),
            },
            "--threads" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => threads = Some(n),
                None => return usage(),
            },
            "--jobs" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => jobs = Some(n),
                None => return usage(),
            },
            "--max-insts" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => max_insts = Some(n),
                None => return usage(),
            },
            "--tier" => match it.next().and_then(|s| Tier::parse(s)) {
                Some(t) => tier = Some(t),
                None => return usage(),
            },
            "--dump" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => dump = n,
                None => return usage(),
            },
            "--arg" => match it.next().and_then(|s| ArgSpec::parse_colon(s)) {
                Some(s) => specs.push(s),
                None => return usage(),
            },
            other => {
                eprintln!("ompgpu: unknown flag {other}");
                return usage();
            }
        }
    }

    if telemetry.is_some() {
        telemetry_begin();
    }
    let (module, report) = match pipeline::build(&source, config) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("ompgpu: {e}");
            return ExitCode::from(EXIT_BUILD);
        }
    };
    if let Some(r) = &report {
        let c = r.counts;
        eprintln!(
            "[{}] h2s={} h2shared={} spmdized={} csm={} folds={} remarks={}",
            config.label(),
            c.heap_to_stack,
            c.heap_to_shared,
            c.spmdized,
            c.csm_rewritten,
            c.folds_exec_mode + c.folds_parallel_level + c.folds_launch_params,
            r.remarks.len()
        );
        if show_remarks {
            for remark in r.remarks.all() {
                eprintln!("{remark}");
            }
        }
    }
    if time_passes {
        print_time_passes(report.as_ref());
    }
    match mode.as_str() {
        "build" => {
            if emit_ir {
                print!("{}", omp_ir::printer::print_module(&module));
            } else {
                for k in &module.kernels {
                    println!(
                        "kernel {} ({:?} mode, {} functions in module)",
                        k.source_name,
                        k.exec_mode,
                        module.num_functions()
                    );
                }
            }
            if let Some(tpath) = &telemetry {
                let mut reg = omp_telemetry::MetricsRegistry::new();
                if let Some(r) = &report {
                    pipeline::record_pipeline_metrics(r, &mut reg);
                }
                if let Err(e) = telemetry_write(tpath, &reg) {
                    eprintln!("ompgpu: {e}");
                    return ExitCode::from(EXIT_BUILD);
                }
            }
            ExitCode::SUCCESS
        }
        "run" => {
            let Some(kernel) = kernel else {
                eprintln!("ompgpu run: --kernel NAME is required");
                return usage();
            };
            let mut dev = match Device::new(&module, Default::default()) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("ompgpu: {e}");
                    return ExitCode::from(EXIT_SIM);
                }
            };
            if let Some(j) = jobs {
                dev.set_jobs(j);
            }
            if let Some(b) = max_insts {
                dev.set_max_insts(b);
            }
            if let Some(t) = tier {
                dev.set_tier(t);
            }
            let (rt_args, buffers) = match oracle::materialize_args(&mut dev, &specs) {
                Ok(x) => x,
                Err(e) => {
                    eprintln!("ompgpu: {e}");
                    return ExitCode::from(EXIT_SIM);
                }
            };
            match dev.launch_plan(&kernel, &rt_args, LaunchDims { teams, threads }) {
                Ok(stats) => {
                    if json {
                        println!("{}", stats.snapshot().to_json());
                    } else {
                        println!(
                            "kernel time: {} cycles   regs: {}   smem: {} B   heap: {} B",
                            stats.cycles, stats.registers, stats.shared_mem_bytes, stats.heap_bytes
                        );
                        println!(
                            "insts: {}   mem accesses: {} ({} coalesced / {} scattered)   barriers: {}",
                            stats.instructions,
                            stats.memory_accesses,
                            stats.coalesced_accesses,
                            stats.uncoalesced_accesses,
                            stats.barriers
                        );
                        if let Some((min, median, max)) = team_spread(&stats.team_cycles) {
                            println!(
                                "team cycles: min {min} / median {median} / max {max} ({} teams)",
                                stats.team_cycles.len()
                            );
                        }
                    }
                    if dump > 0 {
                        for (i, (addr, len, is_f64)) in buffers.iter().enumerate() {
                            let k = dump.min(*len);
                            let rendered = if *is_f64 {
                                dev.read_f64(*addr, k).map(|v| format!("{v:?}"))
                            } else {
                                dev.read_i64(*addr, k).map(|v| format!("{v:?}"))
                            };
                            match rendered {
                                Ok(v) => println!("buf{i}[..{k}] = {v}"),
                                Err(e) => {
                                    eprintln!("ompgpu: cannot read back buf{i}: {e}");
                                    return ExitCode::from(EXIT_SIM);
                                }
                            }
                        }
                    }
                    if let Some(tpath) = &telemetry {
                        let mut reg = omp_telemetry::MetricsRegistry::new();
                        if let Some(r) = &report {
                            pipeline::record_pipeline_metrics(r, &mut reg);
                        }
                        stats.snapshot().record_metrics(&mut reg);
                        if let Err(e) = telemetry_write(tpath, &reg) {
                            eprintln!("ompgpu: {e}");
                            return ExitCode::from(EXIT_BUILD);
                        }
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    if json {
                        println!("{}", e.to_json());
                    }
                    eprintln!("ompgpu: launch failed: {e}");
                    ExitCode::from(EXIT_SIM)
                }
            }
        }
        _ => usage(),
    }
}
