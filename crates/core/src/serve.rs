//! The compile service: `ompgpu serve`.
//!
//! A [`Session`] is a long-lived compilation context with
//! content-addressed caches at the pipeline's stage boundaries plus
//! one launch-level tier (see `docs/SERVE.md` for the full protocol
//! specification):
//!
//! 1. **frontend tier** — `fnv1a(globalization scheme, CUDA flag,
//!    source text)` → parsed + lowered [`Module`]. The frontend depends
//!    on the build configuration only through those two options, so all
//!    six OpenMP-source configurations share at most two entries per
//!    source.
//! 2. **optimized tier** — `fnv1a(frontend IR hash,
//!    [`BuildConfig::fingerprint`])` → optimized [`Module`] plus the
//!    pre-serialized deterministic compile result (counts, remarks,
//!    kernel table). The fingerprint covers every optimizer and
//!    frontend option, so two configurations can never alias.
//! 3. **device tier** — an LRU of warmed [`OwnedDevice`]s keyed by the
//!    optimized module's IR content hash. A device embeds its decoded
//!    [`ExecPlan`](omp_gpusim::ExecPlan), so this tier is the
//!    module → ExecPlan cache; on reuse the device is
//!    [`reset`](omp_gpusim::Device::reset) back to its freshly
//!    constructed memory state, which makes warm launches byte-identical
//!    to cold ones.
//! 4. **graphs tier** — `fnv1a(optimized IR hash, kernel, dims,
//!    argument specs)` → [`CapturedGraph`](omp_gpusim::CapturedGraph)
//!    of a multi-kernel launch plan. A warm `run` replays the captured
//!    graph, skipping every per-launch setup step, with `result` bytes
//!    identical to the eager cold run.
//!
//! Requests arrive as JSON-lines (`ompgpu-serve/v1`); each response
//! carries per-request cache hit/miss accounting in its envelope and a
//! deterministic `result` payload: for every request type except
//! `stats`, the `result` object from a warm cache is byte-identical to
//! the cold one (the envelope's `cache` field is the only part allowed
//! to differ). Wall-clock quantities (pass timings) are deliberately
//! excluded from every payload.
//!
//! [`spawn_executor`] runs a session on a dedicated thread behind an
//! MPSC queue: requests from any number of clients are serialized FIFO
//! and drained in batches, which is both the concurrency story (the
//! session needs no locks) and the determinism story (arrival order is
//! execution order). [`serve_unix`] exposes the executor on a Unix
//! socket for `ompgpu serve` / `ompgpu client`.

use crate::config::BuildConfig;
use crate::oracle::{self, ArgSpec, CaseResult, ExampleSpec, ORACLE_CONFIGS};
use crate::pipeline::{self, SanitizeOutcome};
use omp_gpusim::{FaultPlan, LaunchDims, OwnedDevice, ProfileMode, SanitizeMode};
use omp_ir::Module;
use omp_json::{content_address, fnv1a, JsonWriter, Value};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Schema identifier carried by every response envelope.
pub const SCHEMA: &str = "ompgpu-serve/v1";

/// Every request type the protocol accepts, in documentation order.
pub const ALL_OPS: [&str; 9] = [
    "ping", "compile", "run", "verify", "profile", "sanitize", "metrics", "stats", "shutdown",
];

/// Exit-code semantics shared with the CLI: success / clean.
pub const EXIT_OK: u8 = 0;
/// Compile or I/O failure.
pub const EXIT_BUILD: u8 = 1;
/// Usage error (malformed request, unknown op, bad field).
pub const EXIT_USAGE: u8 = 2;
/// Simulation or launch failure.
pub const EXIT_SIM: u8 = 3;
/// Oracle divergence.
pub const EXIT_DIVERGED: u8 = 4;
/// Error-severity sanitizer findings.
pub const EXIT_FINDINGS: u8 = 5;
// 6 is `ompgpu json-validate`'s unknown-schema exit; serve never
// produces it, so the serve-specific codes start at 7.
/// The request's deadline (`deadline_ms`) expired before or during
/// execution.
pub const EXIT_TIMEOUT: u8 = 7;
/// Admission control shed the request (executor queue full); retry
/// after the `retry_after_ms` hint in the error object.
pub const EXIT_OVERLOAD: u8 = 8;
/// Request execution panicked. The panic is isolated: the session rolls
/// back the request's cache insertions and stays usable.
pub const EXIT_INTERNAL: u8 = 9;

/// Default per-launch wall-clock watchdog, in seconds.
const DEFAULT_WATCHDOG_SECS: u64 = 60;

/// Default server-side request deadline (queue wait plus execution) in
/// milliseconds, applied when a request carries no `deadline_ms` field.
/// `0` disables the default.
pub const DEFAULT_DEADLINE_MS: u64 = 300_000;

/// Default bound on the executor's admission queue. A request arriving
/// while the queue holds this many is shed with [`EXIT_OVERLOAD`]
/// instead of waiting unboundedly.
pub const DEFAULT_QUEUE_CAPACITY: usize = 256;

/// Backoff hint carried by a shed response (`error.retry_after_ms`) and
/// the base delay of [`ExecutorHandle::request_with_retry`].
pub const RETRY_AFTER_MS: u64 = 25;

/// Upper bound on one request frame (a single JSON line), in bytes.
/// Longer frames are answered with a structured usage error instead of
/// being buffered without bound.
pub const MAX_FRAME_BYTES: usize = 4 * 1024 * 1024;

/// Default capacity of the warm-device LRU: enough to keep the whole
/// six-configuration ablation matrix of one subject warm, plus slack.
pub const DEFAULT_DEVICE_CAPACITY: usize = 8;

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

/// Hit/miss counters of one cache tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute the artifact.
    pub misses: u64,
}

impl TierStats {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("hits").u64(self.hits);
        w.key("misses").u64(self.misses);
        w.end_object();
    }
}

/// Cumulative accounting of one [`Session`], surfaced by the `stats`
/// request and rendered per request into each response envelope (the
/// per-request slice lives in [`Session::trace`]-internal counters).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Source → frontend-module tier.
    pub frontend: TierStats,
    /// (frontend module, configuration) → optimized-module tier.
    pub optimized: TierStats,
    /// Optimized module → warmed device (with decoded ExecPlan) tier.
    pub device: TierStats,
    /// (optimized module, kernel, dims, args) → captured-graph tier
    /// (multi-kernel launch plans only; a hit replays without any
    /// per-launch setup).
    pub graphs: TierStats,
    /// Requests handled (including malformed ones).
    pub requests: u64,
    /// Requests that produced a non-zero exit code.
    pub errors: u64,
    /// Per-op request counts, keyed by the op's stable [`ALL_OPS`]
    /// name (not positionally — the protocol gaining an op must never
    /// silently re-index existing counters).
    pub ops: std::collections::BTreeMap<&'static str, u64>,
    /// Executor batches drained (one batch per wake-up).
    pub batches: u64,
    /// Requests drained across all batches.
    pub batched_requests: u64,
    /// Requests that exceeded their deadline, whether while queued or
    /// mid-execution (exit code [`EXIT_TIMEOUT`]).
    pub timeouts: u64,
    /// Requests whose execution panicked; the panic was isolated and
    /// the session kept running (exit code [`EXIT_INTERNAL`]).
    pub panics: u64,
}

impl SessionStats {
    /// Total cache hits across all four tiers (the quantity the CI
    /// smoke test asserts is positive on a warm second pass).
    pub fn total_hits(&self) -> u64 {
        self.frontend.hits + self.optimized.hits + self.device.hits + self.graphs.hits
    }
}

/// Accounting shared between the executor thread, its handles, and the
/// connection threads. Shedding and client retries happen *outside* the
/// session (a shed request never reaches it), so they live in atomics
/// here and are folded into the `stats`/`metrics` renderings at read
/// time.
#[derive(Debug, Default)]
pub struct ExecShared {
    /// Requests shed by admission control (executor queue full).
    pub shed: AtomicU64,
    /// Retries performed by [`ExecutorHandle::request_with_retry`]
    /// after shed submissions.
    pub retries: AtomicU64,
    /// Set once the executor has processed a `shutdown` request (or
    /// exited for any reason); connection threads poll this instead of
    /// re-parsing every response JSON on the hot path.
    pub shutdown: AtomicBool,
}

/// Per-request cache accounting, rendered into the response envelope.
#[derive(Debug, Clone, Copy, Default)]
struct CacheTrace {
    frontend: TierStats,
    optimized: TierStats,
    device: TierStats,
    graphs: TierStats,
}

impl CacheTrace {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("frontend");
        self.frontend.write_json(w);
        w.key("optimized");
        self.optimized.write_json(w);
        w.key("device");
        self.device.write_json(w);
        w.key("graphs");
        self.graphs.write_json(w);
        w.end_object();
    }
}

// ---------------------------------------------------------------------
// Cache entries
// ---------------------------------------------------------------------

struct FrontendEntry {
    module: Arc<Module>,
    /// FNV-1a of the printed frontend IR — the content half of the
    /// optimized tier's key.
    ir_hash: u64,
}

#[derive(Clone)]
struct OptimizedEntry {
    module: Arc<Module>,
    /// FNV-1a of the printed optimized IR — the device tier's key and
    /// the artifact's public content address.
    ir_hash: u64,
    /// The deterministic `compile` result payload, serialized once at
    /// miss time so hits are byte-identical by construction.
    compile_result: String,
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// A serve-pipeline stage boundary that fault injection can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ServeStage {
    /// Source parsing + lowering (the frontend cache tier).
    Frontend,
    /// The optimizer pipeline (the optimized cache tier).
    Optimize,
    /// Device construction / plan decode (the device cache tier).
    Device,
    /// Kernel launch on the armed device.
    Launch,
    /// Captured-graph replay (multi-kernel runs only).
    Replay,
}

impl ServeStage {
    const ALL: [ServeStage; 5] = [
        ServeStage::Frontend,
        ServeStage::Optimize,
        ServeStage::Device,
        ServeStage::Launch,
        ServeStage::Replay,
    ];

    fn name(self) -> &'static str {
        match self {
            ServeStage::Frontend => "frontend",
            ServeStage::Optimize => "optimize",
            ServeStage::Device => "device",
            ServeStage::Launch => "launch",
            ServeStage::Replay => "replay",
        }
    }

    fn parse(s: &str) -> Option<ServeStage> {
        ServeStage::ALL.into_iter().find(|st| st.name() == s)
    }
}

/// A seeded serve-layer fault, parsed from a request's `"fault"` object:
/// the stage boundary to fail at, and whether to fail by returning a
/// structured error or by panicking (to exercise panic isolation). The
/// `launch` stage in error mode is injected through the simulator's own
/// [`FaultPlan`], so the fault crosses the serve/device boundary the way
/// a real device fault would.
#[derive(Debug, Clone, Copy)]
struct ServeFault {
    stage: ServeStage,
    panic: bool,
}

/// One decoded request. Field meanings are per-op; see `docs/SERVE.md`.
struct Request {
    id: Option<u64>,
    op: String,
    source: Option<String>,
    /// Report name: explicit `name`, else the `path` file stem, else
    /// `"<inline>"`.
    subject: String,
    config: BuildConfig,
    all_configs: bool,
    kernel: Option<String>,
    teams: Option<u32>,
    threads: Option<u32>,
    args: Option<Vec<ArgSpec>>,
    jobs: Option<u32>,
    watchdog_secs: u64,
    max_insts: Option<u64>,
    dump: usize,
    /// Total request budget (queue wait + execution) in milliseconds;
    /// `None` falls back to the session default.
    deadline_ms: Option<u64>,
    /// Seeded serve-layer fault (chaos testing only).
    fault: Option<ServeFault>,
}

/// A request failure before dispatch: `(exit_code, message)`.
struct RequestError(u8, String);

fn field_u64(v: &Value, key: &str) -> Result<Option<u64>, RequestError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| RequestError(EXIT_USAGE, format!("field {key:?} must be an integer"))),
    }
}

/// A `u32` launch field: out-of-range values are usage errors, never
/// silently truncated.
fn field_u32(v: &Value, key: &str) -> Result<Option<u32>, RequestError> {
    field_u64(v, key)?
        .map(|n| {
            u32::try_from(n).map_err(|_| {
                RequestError(
                    EXIT_USAGE,
                    format!("field {key:?} is out of range (got {n}, max {})", u32::MAX),
                )
            })
        })
        .transpose()
}

fn field_str<'v>(v: &'v Value, key: &str) -> Result<Option<&'v str>, RequestError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => x
            .as_str()
            .map(Some)
            .ok_or_else(|| RequestError(EXIT_USAGE, format!("field {key:?} must be a string"))),
    }
}

impl Request {
    fn from_value(v: &Value) -> Result<Request, RequestError> {
        let op = field_str(v, "op")?
            .ok_or_else(|| RequestError(EXIT_USAGE, "missing \"op\" field".into()))?
            .to_string();
        if !ALL_OPS.contains(&op.as_str()) {
            return Err(RequestError(
                EXIT_USAGE,
                format!("unknown op {op:?} (known: {})", ALL_OPS.join(", ")),
            ));
        }
        let id = field_u64(v, "id")?;
        let inline = field_str(v, "source")?.map(str::to_string);
        let path = field_str(v, "path")?.map(str::to_string);
        if inline.is_some() && path.is_some() {
            return Err(RequestError(
                EXIT_USAGE,
                "give either \"source\" or \"path\", not both".into(),
            ));
        }
        let mut subject = field_str(v, "name")?.map(str::to_string);
        let source = match (inline, &path) {
            (Some(s), _) => Some(s),
            (None, Some(p)) => {
                if subject.is_none() {
                    subject = Path::new(p)
                        .file_stem()
                        .map(|s| s.to_string_lossy().into_owned());
                }
                Some(
                    std::fs::read_to_string(p)
                        .map_err(|e| RequestError(EXIT_BUILD, format!("cannot read {p}: {e}")))?,
                )
            }
            (None, None) => None,
        };
        let config = match field_str(v, "config")? {
            None => BuildConfig::LlvmDev,
            Some(s) => BuildConfig::from_cli_name(s).ok_or_else(|| {
                RequestError(
                    EXIT_USAGE,
                    format!(
                        "unknown config {s:?} (known: {})",
                        BuildConfig::ALL.map(BuildConfig::cli_name).join(", ")
                    ),
                )
            })?,
        };
        let args = match v.get("args") {
            None | Some(Value::Null) => None,
            Some(Value::Array(items)) => {
                let mut specs = Vec::with_capacity(items.len());
                for item in items {
                    let s = item.as_str().ok_or_else(|| {
                        RequestError(EXIT_USAGE, "\"args\" entries must be strings".into())
                    })?;
                    specs.push(ArgSpec::parse_colon(s).ok_or_else(|| {
                        RequestError(EXIT_USAGE, format!("malformed arg spec {s:?}"))
                    })?);
                }
                Some(specs)
            }
            Some(_) => {
                return Err(RequestError(
                    EXIT_USAGE,
                    "\"args\" must be an array of spec strings".into(),
                ))
            }
        };
        let fault = match v.get("fault") {
            None | Some(Value::Null) => None,
            Some(f) => {
                let stage_name = field_str(f, "stage")?.ok_or_else(|| {
                    RequestError(EXIT_USAGE, "\"fault\" needs a \"stage\" field".into())
                })?;
                let stage = ServeStage::parse(stage_name).ok_or_else(|| {
                    RequestError(
                        EXIT_USAGE,
                        format!(
                            "unknown fault stage {stage_name:?} (known: {})",
                            ServeStage::ALL.map(ServeStage::name).join(", ")
                        ),
                    )
                })?;
                let panic = match field_str(f, "mode")? {
                    None | Some("error") => false,
                    Some("panic") => true,
                    Some(m) => {
                        return Err(RequestError(
                            EXIT_USAGE,
                            format!("unknown fault mode {m:?} (known: error, panic)"),
                        ))
                    }
                };
                Some(ServeFault { stage, panic })
            }
        };
        Ok(Request {
            id,
            op,
            source,
            subject: subject.unwrap_or_else(|| "<inline>".to_string()),
            config,
            all_configs: v
                .get("all_configs")
                .and_then(Value::as_bool)
                .unwrap_or(false),
            kernel: field_str(v, "kernel")?.map(str::to_string),
            teams: field_u32(v, "teams")?,
            threads: field_u32(v, "threads")?,
            args,
            jobs: field_u32(v, "jobs")?,
            watchdog_secs: field_u64(v, "watchdog_secs")?.unwrap_or(DEFAULT_WATCHDOG_SECS),
            max_insts: field_u64(v, "max_insts")?,
            dump: field_u64(v, "dump")?.unwrap_or(0) as usize,
            deadline_ms: field_u64(v, "deadline_ms")?,
            fault,
        })
    }

    fn source(&self) -> Result<&str, RequestError> {
        self.source.as_deref().ok_or_else(|| {
            RequestError(
                EXIT_USAGE,
                format!("op {:?} needs a \"source\" or \"path\" field", self.op),
            )
        })
    }
}

/// Outcome of one dispatched request: exit code plus either a `result`
/// payload or an error (`message`, optional structured `detail`).
struct Outcome {
    exit_code: u8,
    result: Option<String>,
    error: Option<(String, Option<String>)>,
}

impl Outcome {
    fn ok(result: String) -> Outcome {
        Outcome {
            exit_code: EXIT_OK,
            result: Some(result),
            error: None,
        }
    }

    fn ok_with_exit(exit_code: u8, result: String) -> Outcome {
        Outcome {
            exit_code,
            result: Some(result),
            error: None,
        }
    }

    fn fail(exit_code: u8, message: String) -> Outcome {
        Outcome {
            exit_code,
            result: None,
            error: Some((message, None)),
        }
    }

    fn fail_with_detail(exit_code: u8, message: String, detail: String) -> Outcome {
        Outcome {
            exit_code,
            result: None,
            error: Some((message, Some(detail))),
        }
    }
}

impl From<RequestError> for Outcome {
    fn from(e: RequestError) -> Outcome {
        Outcome::fail(e.0, e.1)
    }
}

// ---------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------

/// The per-request launch knobs applied to a (possibly warmed) device.
/// Every mode is set explicitly on every request, so a device inherited
/// from a previous request carries nothing over except its warmed
/// memory image and decoded plan.
struct Knobs {
    jobs: Option<u32>,
    watchdog_secs: u64,
    max_insts: Option<u64>,
    profile: bool,
    sanitize: bool,
    /// Arm the simulator's own [`FaultPlan`] (trap at instruction 0):
    /// set for error-mode `launch`-stage fault injection so the fault
    /// crosses the serve/device boundary through the real machinery.
    launch_fault: bool,
}

impl Knobs {
    fn of(req: &Request) -> Knobs {
        Knobs {
            jobs: req.jobs,
            watchdog_secs: req.watchdog_secs,
            max_insts: req.max_insts,
            profile: req.op == "profile",
            sanitize: req.op == "sanitize",
            launch_fault: matches!(
                req.fault,
                Some(ServeFault {
                    stage: ServeStage::Launch,
                    panic: false,
                })
            ),
        }
    }
}

/// Strictly parses an `OMPGPU_MAX_INSTS` value: the per-thread
/// instruction budget freshly constructed (and re-armed warm) devices
/// get.
fn parse_max_insts(v: &str) -> Result<u64, String> {
    v.parse().map_err(|_| {
        format!("invalid OMPGPU_MAX_INSTS {v:?}: expected a non-negative integer budget")
    })
}

/// Strictly parses an `OMPGPU_TIER` value.
fn parse_tier(v: &str) -> Result<omp_gpusim::Tier, String> {
    omp_gpusim::Tier::parse(v)
        .ok_or_else(|| format!("invalid OMPGPU_TIER {v:?}: expected \"interp\" or \"compiled\""))
}

/// Resolves one `OMPGPU_*` override at session construction: absent
/// means the built-in default; present-but-invalid is a hard error (it
/// must never be silently swallowed into the default).
fn env_override<T>(
    name: &str,
    default: T,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<T, String> {
    match std::env::var(name) {
        Err(std::env::VarError::NotPresent) => Ok(default),
        Err(std::env::VarError::NotUnicode(_)) => Err(format!("invalid {name}: not valid UTF-8")),
        Ok(v) => parse(&v),
    }
}

/// The in-flight request's cache-mutation journal: the keys it inserted
/// into each tier plus every device it touched. A failed request's
/// insertions are rolled back so no failure can populate a cache tier,
/// and a panicking or timed-out request's devices are quarantined
/// (dropped from the LRU, rebuilt cold on next use) so a possibly
/// inconsistent warm image can never answer a later request.
#[derive(Default)]
struct Journal {
    frontend: Vec<u64>,
    optimized: Vec<u64>,
    devices: Vec<u64>,
    graphs: Vec<u64>,
    /// Device-tier keys this request armed or built (hit or miss).
    touched_devices: Vec<u64>,
}

/// A long-lived compile-service session: the three artifact cache tiers
/// plus request accounting. Not internally synchronized — wrap it in
/// [`spawn_executor`] to share it across clients.
pub struct Session {
    frontend: HashMap<u64, FrontendEntry>,
    optimized: HashMap<u64, OptimizedEntry>,
    /// Warm-device LRU, oldest first; each entry is keyed by the
    /// optimized module's IR hash.
    devices: Vec<(u64, OwnedDevice)>,
    device_capacity: usize,
    /// Captured multi-kernel launch graphs, content-addressed by
    /// (optimized IR hash, kernel, dims, argument specs). A hit skips
    /// every per-launch setup step on replay.
    graphs: HashMap<u64, omp_gpusim::CapturedGraph>,
    stats: SessionStats,
    trace: CacheTrace,
    /// Live latency/batch-size histograms (wall clock — informational).
    /// Deterministic counters are *not* stored here: the `metrics` op
    /// derives them from [`SessionStats`] at render time so the two
    /// expositions can never drift apart.
    metrics: omp_telemetry::MetricsRegistry,
    /// Opt-in JSON-lines access log, one record per request.
    access_log: Option<std::io::BufWriter<std::fs::File>>,
    /// Shed/retry/shutdown accounting shared with executor handles.
    shared: Arc<ExecShared>,
    /// Bound of the executor admission queue ([`spawn_executor`]).
    queue_capacity: usize,
    /// Server-side default deadline in milliseconds (0 = none) for
    /// requests without a `deadline_ms` field.
    default_deadline_ms: u64,
    /// Deadline of the in-flight request: (total budget ms, budget
    /// remaining at dispatch). Set around `dispatch` only.
    current_deadline: Option<(u64, u64)>,
    /// Cache mutations of the in-flight request, for failure rollback.
    journal: Journal,
    /// `OMPGPU_MAX_INSTS` override resolved (and validated) at
    /// construction, else the config default.
    env_max_insts: u64,
    /// `OMPGPU_TIER` override resolved at construction, else the
    /// config default.
    env_tier: omp_gpusim::Tier,
}

impl Default for Session {
    fn default() -> Session {
        Session::new(DEFAULT_DEVICE_CAPACITY)
    }
}

impl Session {
    /// Creates a session whose warm-device LRU holds up to
    /// `device_capacity` entries (minimum 1). Panics on an invalid
    /// `OMPGPU_*` environment override; daemons should prefer
    /// [`Session::try_new`] and report the structured error.
    pub fn new(device_capacity: usize) -> Session {
        Session::try_new(device_capacity).expect("invalid OMPGPU_* environment override")
    }

    /// Like [`Session::new`], but an invalid `OMPGPU_MAX_INSTS` or
    /// `OMPGPU_TIER` override is a structured startup error instead of
    /// being silently swallowed into the default.
    pub fn try_new(device_capacity: usize) -> Result<Session, String> {
        let env_max_insts = env_override(
            "OMPGPU_MAX_INSTS",
            omp_gpusim::DeviceConfig::default().max_insts_per_thread,
            parse_max_insts,
        )?;
        let env_tier = env_override(
            "OMPGPU_TIER",
            omp_gpusim::DeviceConfig::default().tier,
            parse_tier,
        )?;
        Ok(Session {
            frontend: HashMap::new(),
            optimized: HashMap::new(),
            devices: Vec::new(),
            device_capacity: device_capacity.max(1),
            graphs: HashMap::new(),
            stats: SessionStats::default(),
            trace: CacheTrace::default(),
            metrics: omp_telemetry::MetricsRegistry::new(),
            access_log: None,
            shared: Arc::new(ExecShared::default()),
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            default_deadline_ms: DEFAULT_DEADLINE_MS,
            current_deadline: None,
            journal: Journal::default(),
            env_max_insts,
            env_tier,
        })
    }

    /// Cumulative session statistics.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// The shed/retry/shutdown accounting shared with executor handles.
    pub fn shared(&self) -> Arc<ExecShared> {
        Arc::clone(&self.shared)
    }

    /// Sets the executor admission-queue bound (minimum 1) used by
    /// [`spawn_executor`].
    pub fn set_queue_capacity(&mut self, n: usize) {
        self.queue_capacity = n.max(1);
    }

    /// Sets the server-side default deadline in milliseconds applied to
    /// requests without a `deadline_ms` field (0 disables it).
    pub fn set_default_deadline_ms(&mut self, ms: u64) {
        self.default_deadline_ms = ms;
    }

    /// Opens (appending) the JSON-lines access log at `path`; every
    /// subsequent request writes one `ompgpu-access-log/v1` record.
    pub fn set_access_log(&mut self, path: &Path) -> Result<(), String> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open access log {}: {e}", path.display()))?;
        self.access_log = Some(std::io::BufWriter::new(file));
        Ok(())
    }

    /// Records one executor batch of `n` requests.
    pub fn note_batch(&mut self, n: usize) {
        self.stats.batches += 1;
        self.stats.batched_requests += n as u64;
        self.metrics.observe("serve.batch_size", n as u64);
    }

    // -- cache tiers --------------------------------------------------

    fn frontend_key(source: &str, config: BuildConfig) -> u64 {
        let fe = config.frontend_options("bench");
        fnv1a(
            format!(
                "fe\x00{:?}\x00{}\x00{source}",
                fe.globalization, fe.cuda_mode
            )
            .as_bytes(),
        )
    }

    /// Fires a seeded fault if the request arms one at `stage`: panic
    /// mode unwinds (caught by the per-request `catch_unwind`
    /// isolation), error mode returns the structured message every
    /// caller degrades into a failure outcome.
    fn stage_fault(fault: Option<ServeFault>, stage: ServeStage) -> Result<(), String> {
        match fault {
            Some(f) if f.stage == stage => {
                if f.panic {
                    panic!("injected panic at {} stage", stage.name());
                }
                Err(format!("injected fault: {} stage failure", stage.name()))
            }
            _ => Ok(()),
        }
    }

    fn frontend_module(
        &mut self,
        source: &str,
        config: BuildConfig,
        fault: Option<ServeFault>,
    ) -> Result<(Arc<Module>, u64), String> {
        Session::stage_fault(fault, ServeStage::Frontend)?;
        let key = Session::frontend_key(source, config);
        if let Some(e) = self.frontend.get(&key) {
            self.stats.frontend.hits += 1;
            self.trace.frontend.hits += 1;
            return Ok((Arc::clone(&e.module), e.ir_hash));
        }
        self.stats.frontend.misses += 1;
        self.trace.frontend.misses += 1;
        let module = pipeline::compile_frontend(source, config).map_err(|e| e.to_string())?;
        let ir_hash = fnv1a(omp_ir::printer::print_module(&module).as_bytes());
        let module = Arc::new(module);
        self.frontend.insert(
            key,
            FrontendEntry {
                module: Arc::clone(&module),
                ir_hash,
            },
        );
        self.journal.frontend.push(key);
        Ok((module, ir_hash))
    }

    fn optimized_module(
        &mut self,
        source: &str,
        config: BuildConfig,
        fault: Option<ServeFault>,
    ) -> Result<OptimizedEntry, String> {
        let (fe_module, fe_hash) = self.frontend_module(source, config, fault)?;
        Session::stage_fault(fault, ServeStage::Optimize)?;
        let key =
            fnv1a(format!("opt\x00{fe_hash:016x}\x00{:016x}", config.fingerprint()).as_bytes());
        if let Some(e) = self.optimized.get(&key) {
            self.stats.optimized.hits += 1;
            self.trace.optimized.hits += 1;
            return Ok(e.clone());
        }
        self.stats.optimized.misses += 1;
        self.trace.optimized.misses += 1;
        let (module, report) =
            pipeline::optimize((*fe_module).clone(), config).map_err(|e| e.to_string())?;
        let ir_hash = fnv1a(omp_ir::printer::print_module(&module).as_bytes());
        let compile_result = render_compile_result(config, &module, ir_hash, report.as_ref());
        let entry = OptimizedEntry {
            module: Arc::new(module),
            ir_hash,
            compile_result,
        };
        self.optimized.insert(key, entry.clone());
        self.journal.optimized.push(key);
        Ok(entry)
    }

    /// Returns the LRU index of a warmed device for `entry`, building
    /// one on miss and resetting the memory image on hit.
    fn device_for(
        &mut self,
        entry: &OptimizedEntry,
        fault: Option<ServeFault>,
    ) -> Result<usize, String> {
        Session::stage_fault(fault, ServeStage::Device)?;
        let key = entry.ir_hash;
        self.journal.touched_devices.push(key);
        if let Some(pos) = self.devices.iter().position(|(k, _)| *k == key) {
            self.stats.device.hits += 1;
            self.trace.device.hits += 1;
            let mut pair = self.devices.remove(pos);
            pair.1.with(|d| d.reset());
            self.devices.push(pair);
            return Ok(self.devices.len() - 1);
        }
        self.stats.device.misses += 1;
        self.trace.device.misses += 1;
        let dev = OwnedDevice::new(Arc::clone(&entry.module), Default::default())
            .map_err(|e| e.to_string())?;
        if self.devices.len() >= self.device_capacity {
            self.devices.remove(0);
        }
        self.devices.push((key, dev));
        self.journal.devices.push(key);
        Ok(self.devices.len() - 1)
    }

    /// Arms the device at `idx` with this request's launch knobs. The
    /// effective wall-clock watchdog is the tighter of the request's
    /// `watchdog_secs` budget and the remaining request deadline;
    /// returns the deadline's total budget when the deadline is the
    /// binding constraint, so a watchdog expiry can be classified as a
    /// deadline timeout by [`classify_launch_error`].
    fn arm_device(&mut self, idx: usize, knobs: &Knobs) -> Option<u64> {
        let watchdog_ms = knobs.watchdog_secs.checked_mul(1000).filter(|ms| *ms > 0);
        let (deadline_total, deadline_remaining) = match self.current_deadline {
            Some((total, remaining)) => (Some(total), Some(remaining)),
            None => (None, None),
        };
        let (budget_ms, deadline_bound) = match (watchdog_ms, deadline_remaining) {
            (None, None) => (None, false),
            (Some(w), None) => (Some(w), false),
            (None, Some(r)) => (Some(r), true),
            (Some(w), Some(r)) if r <= w => (Some(r), true),
            (Some(w), Some(_)) => (Some(w), false),
        };
        let watchdog = budget_ms.map(Duration::from_millis);
        let max_insts = knobs.max_insts.unwrap_or(self.env_max_insts);
        let fault_plan = if knobs.launch_fault {
            FaultPlan {
                trap_at_inst: Some(0),
                ..FaultPlan::default()
            }
        } else {
            FaultPlan::default()
        };
        self.devices[idx].1.with(|d| {
            d.set_jobs(knobs.jobs.unwrap_or(0));
            d.set_profile(if knobs.profile {
                ProfileMode::On
            } else {
                ProfileMode::Off
            });
            d.set_sanitize(if knobs.sanitize {
                SanitizeMode::On
            } else {
                SanitizeMode::Off
            });
            d.set_fault_plan(fault_plan);
            d.set_watchdog(watchdog);
            d.set_max_insts(max_insts);
        });
        if deadline_bound {
            deadline_total
        } else {
            None
        }
    }

    // -- request handling ---------------------------------------------

    /// Handles one JSON-lines request, returning the serialized response
    /// envelope and whether this request shuts the session down.
    pub fn handle_line(&mut self, line: &str) -> (String, bool) {
        self.handle_line_timed(line, 0)
    }

    /// Like [`Session::handle_line`], with the request's executor-queue
    /// wait (microseconds) supplied by the caller so it can be folded
    /// into the latency histograms and the access log.
    pub fn handle_line_timed(&mut self, line: &str, queue_micros: u64) -> (String, bool) {
        let t0 = std::time::Instant::now();
        self.trace = CacheTrace::default();
        self.journal = Journal::default();
        self.stats.requests += 1;
        let mut panicked = false;
        let (id, op, outcome) = if line.len() > MAX_FRAME_BYTES {
            (
                None,
                None,
                Outcome::fail(
                    EXIT_USAGE,
                    format!(
                        "frame too large: {} bytes exceeds the {MAX_FRAME_BYTES}-byte limit",
                        line.len()
                    ),
                ),
            )
        } else {
            match omp_json::parse(line) {
                Err(e) => (
                    None,
                    None,
                    Outcome::fail(EXIT_USAGE, format!("malformed request JSON: {e}")),
                ),
                Ok(v) => match Request::from_value(&v) {
                    Err(e) => (
                        v.get("id").and_then(Value::as_u64),
                        v.get("op").and_then(Value::as_str).map(str::to_string),
                        e.into(),
                    ),
                    Ok(req) => {
                        if let Some(name) = ALL_OPS.iter().find(|o| **o == req.op) {
                            *self.stats.ops.entry(name).or_insert(0) += 1;
                        }
                        let _span =
                            omp_telemetry::span_lazy("serve", || format!("serve.{}", req.op));
                        let deadline_ms = req
                            .deadline_ms
                            .or((self.default_deadline_ms > 0).then_some(self.default_deadline_ms));
                        let queued_ms = queue_micros / 1000;
                        let outcome = match deadline_ms {
                            // Expired while queued: never dispatched, so
                            // the caches and devices are untouched.
                            Some(ms) if queued_ms >= ms => {
                                let e = omp_gpusim::SimError::deadline_exceeded(ms);
                                Outcome::fail_with_detail(EXIT_TIMEOUT, e.to_string(), e.to_json())
                            }
                            _ => {
                                self.current_deadline = deadline_ms.map(|ms| (ms, ms - queued_ms));
                                // Panic isolation: a panicking op must
                                // not take down the executor. The
                                // rollback below restores consistency,
                                // so resuming on the &mut session is
                                // sound despite the unwind.
                                let dispatched =
                                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                        self.dispatch(&req)
                                    }));
                                self.current_deadline = None;
                                match dispatched {
                                    Ok(o) => o,
                                    Err(payload) => {
                                        panicked = true;
                                        Outcome::fail(
                                            EXIT_INTERNAL,
                                            format!(
                                                "internal: request panicked: {}",
                                                panic_message(payload.as_ref())
                                            ),
                                        )
                                    }
                                }
                            }
                        };
                        (req.id, Some(req.op), outcome)
                    }
                },
            }
        };
        if outcome.exit_code == EXIT_TIMEOUT {
            self.stats.timeouts += 1;
        }
        if panicked {
            self.stats.panics += 1;
        }
        self.isolate_failure(&outcome, panicked);
        if outcome.exit_code != EXIT_OK && outcome.result.is_none() {
            self.stats.errors += 1;
        }
        let service_micros = t0.elapsed().as_micros() as u64;
        self.metrics.observe("serve.queue_micros", queue_micros);
        self.metrics.observe(
            &match op.as_deref() {
                Some(o) => format!("serve.service_micros.{o}"),
                None => "serve.service_micros.invalid".to_string(),
            },
            service_micros,
        );
        let shutdown = op.as_deref() == Some("shutdown") && outcome.exit_code == EXIT_OK;
        let response = self.envelope(id, op.as_deref(), &outcome);
        self.log_access(
            id,
            op.as_deref(),
            &outcome,
            queue_micros,
            service_micros,
            response.len(),
        );
        (response, shutdown)
    }

    /// Enforces the failure-consistency rule after one request: a
    /// failed request must never populate a cache tier (every insertion
    /// it made is rolled back), and a panicking or timed-out request's
    /// touched devices are quarantined — dropped from the LRU, rebuilt
    /// cold on next use — so the warm==cold byte-identity invariant
    /// survives a fault that may have left a device mid-launch.
    fn isolate_failure(&mut self, outcome: &Outcome, panicked: bool) {
        let journal = std::mem::take(&mut self.journal);
        if outcome.error.is_some() {
            for k in &journal.frontend {
                self.frontend.remove(k);
            }
            for k in &journal.optimized {
                self.optimized.remove(k);
            }
            for k in &journal.graphs {
                self.graphs.remove(k);
            }
            self.devices.retain(|(k, _)| !journal.devices.contains(k));
        }
        if panicked || outcome.exit_code == EXIT_TIMEOUT {
            self.devices
                .retain(|(k, _)| !journal.touched_devices.contains(k));
        }
    }

    /// Writes one access-log record, if the log is enabled.
    fn log_access(
        &mut self,
        id: Option<u64>,
        op: Option<&str>,
        outcome: &Outcome,
        queue_micros: u64,
        service_micros: u64,
        bytes: usize,
    ) {
        let Some(out) = self.access_log.as_mut() else {
            return;
        };
        let ts_micros = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        let mut w = JsonWriter::with_capacity(256);
        w.begin_object();
        w.key("schema").string(omp_telemetry::ACCESS_LOG_SCHEMA);
        w.key("ts_micros").u64(ts_micros);
        w.key("id");
        match id {
            Some(n) => {
                w.u64(n);
            }
            None => {
                w.null();
            }
        }
        w.key("op");
        match op {
            Some(o) => {
                w.string(o);
            }
            None => {
                w.null();
            }
        }
        w.key("ok").bool(outcome.exit_code == EXIT_OK);
        w.key("exit_code").u64(outcome.exit_code as u64);
        w.key("cache");
        self.trace.write_json(&mut w);
        w.key("queue_micros").u64(queue_micros);
        w.key("service_micros").u64(service_micros);
        w.key("bytes").u64(bytes as u64);
        w.end_object();
        let _ = writeln!(out, "{}", w.finish());
        let _ = out.flush();
    }

    fn dispatch(&mut self, req: &Request) -> Outcome {
        match req.op.as_str() {
            "ping" => Outcome::ok("{\"pong\":true}".to_string()),
            "metrics" => Outcome::ok(self.render_metrics()),
            "stats" => Outcome::ok(self.render_stats()),
            "shutdown" => Outcome::ok("{\"shutting_down\":true}".to_string()),
            "compile" => self.op_compile(req),
            "run" => self.op_run(req),
            "verify" => self.op_verify(req),
            "profile" => self.op_profile(req),
            "sanitize" => self.op_sanitize(req),
            _ => unreachable!("op validated in Request::from_value"),
        }
    }

    fn op_compile(&mut self, req: &Request) -> Outcome {
        let source = match req.source() {
            Ok(s) => s.to_string(),
            Err(e) => return e.into(),
        };
        match self.optimized_module(&source, req.config, req.fault) {
            Ok(entry) => Outcome::ok(entry.compile_result),
            Err(e) => Outcome::fail(EXIT_BUILD, e),
        }
    }

    /// Resolves kernel/dims/args from request fields with the source's
    /// `// oracle-*:` header as fallback (same precedence as the CLI).
    fn resolve_spec(
        req: &Request,
        source: &str,
    ) -> Result<(String, LaunchDims, Vec<ArgSpec>), RequestError> {
        let header = ExampleSpec::parse(source).ok();
        let kernel = req
            .kernel
            .clone()
            .or_else(|| header.as_ref().map(|s| s.kernel.clone()))
            .ok_or_else(|| {
                RequestError(
                    EXIT_USAGE,
                    "need a \"kernel\" field (or an `// oracle-kernel:` header)".into(),
                )
            })?;
        let dims = LaunchDims {
            teams: req.teams.or(header.as_ref().and_then(|s| s.teams)),
            threads: req.threads.or(header.as_ref().and_then(|s| s.threads)),
        };
        let args = req
            .args
            .clone()
            .or_else(|| header.map(|s| s.args))
            .unwrap_or_default();
        Ok((kernel, dims, args))
    }

    fn op_run(&mut self, req: &Request) -> Outcome {
        let source = match req.source() {
            Ok(s) => s.to_string(),
            Err(e) => return e.into(),
        };
        let (kernel, dims, specs) = match Session::resolve_spec(req, &source) {
            Ok(x) => x,
            Err(e) => return e.into(),
        };
        let entry = match self.optimized_module(&source, req.config, req.fault) {
            Ok(e) => e,
            Err(e) => return Outcome::fail(EXIT_BUILD, e),
        };
        let idx = match self.device_for(&entry, req.fault) {
            Ok(i) => i,
            Err(e) => return Outcome::fail(EXIT_SIM, e),
        };
        let deadline_ms = self.arm_device(idx, &Knobs::of(req));
        if let Some(f) = req.fault {
            if f.stage == ServeStage::Launch && f.panic {
                panic!("injected panic at launch stage");
            }
        }
        let dump = req.dump;
        // Multi-kernel launch plans go through the captured-graph
        // cache: capture once per (module, kernel, dims, args), replay
        // on every later request. Replay is bit-identical to the eager
        // plan, so warm responses stay byte-identical to cold ones.
        let graph_key = (entry
            .module
            .kernels
            .iter()
            .filter(|k| k.source_name == kernel)
            .count()
            > 1)
        .then(|| {
            fnv1a(
                format!(
                    "graph\x00{:016x}\x00{kernel}\x00{:?}\x00{:?}\x00{specs:?}",
                    entry.ir_hash, dims.teams, dims.threads
                )
                .as_bytes(),
            )
        });
        // The replay boundary only exists for multi-kernel plans, which
        // are the runs that go through graph capture + replay.
        if let Some(f) = req.fault {
            if f.stage == ServeStage::Replay && graph_key.is_some() {
                if f.panic {
                    panic!("injected panic at replay stage");
                }
                return Outcome::fail(EXIT_SIM, "injected fault: replay stage failure".to_string());
            }
        }
        let cached = graph_key.and_then(|k| self.graphs.get(&k).cloned());
        // (stats json, dumped buffers, graph captured by this request)
        type RunOk = (String, Option<String>, Option<omp_gpusim::CapturedGraph>);
        // (exit code, message, structured SimError json)
        type RunErr = (u8, String, Option<String>);
        let launched = self.devices[idx].1.with(|d| -> Result<RunOk, RunErr> {
            let (rt_args, buffers) =
                oracle::materialize_args(d, &specs).map_err(|e| (EXIT_SIM, e, None))?;
            let sim = |e: omp_gpusim::SimError| classify_launch_error(e, deadline_ms);
            let (stats, captured) = if graph_key.is_some() {
                match cached {
                    // The device is reset to a pristine image before
                    // each warm request, so re-materialized argument
                    // addresses match the captured ones exactly.
                    Some(g) if g.args() == rt_args => (d.replay_graph(&g).map_err(sim)?, None),
                    _ => {
                        let g = d.capture_graph(&kernel, &rt_args, dims).map_err(sim)?;
                        (d.replay_graph(&g).map_err(sim)?, Some(g))
                    }
                }
            } else {
                (d.launch(&kernel, &rt_args, dims).map_err(sim)?, None)
            };
            let dumped = if dump > 0 {
                let mut w = JsonWriter::with_capacity(256);
                w.begin_array();
                for (addr, len, is_f64) in &buffers {
                    let k = dump.min(*len);
                    w.begin_array();
                    if *is_f64 {
                        let vals = d
                            .read_f64(*addr, k)
                            .map_err(|e| (EXIT_SIM, e.to_string(), None))?;
                        for v in vals {
                            w.f64(v);
                        }
                    } else {
                        let vals = d
                            .read_i64(*addr, k)
                            .map_err(|e| (EXIT_SIM, e.to_string(), None))?;
                        for v in vals {
                            w.i64(v);
                        }
                    }
                    w.end_array();
                }
                w.end_array();
                Some(w.finish())
            } else {
                None
            };
            Ok((stats.snapshot().to_json(), dumped, captured))
        });
        match launched {
            Ok((stats, dumped, captured)) => {
                if let Some(k) = graph_key {
                    match captured {
                        Some(g) => {
                            self.stats.graphs.misses += 1;
                            self.trace.graphs.misses += 1;
                            self.graphs.insert(k, g);
                            self.journal.graphs.push(k);
                        }
                        None => {
                            self.stats.graphs.hits += 1;
                            self.trace.graphs.hits += 1;
                        }
                    }
                }
                let mut w = JsonWriter::with_capacity(256);
                w.begin_object();
                w.key("config").string(req.config.cli_name());
                w.key("kernel").string(&kernel);
                w.key("stats").raw(&stats);
                if let Some(d) = dumped {
                    w.key("dump").raw(&d);
                }
                w.end_object();
                Outcome::ok(w.finish())
            }
            Err((code, msg, detail)) => match detail {
                Some(d) => Outcome::fail_with_detail(code, msg, d),
                None => Outcome::fail(code, msg),
            },
        }
    }

    fn op_profile(&mut self, req: &Request) -> Outcome {
        let source = match req.source() {
            Ok(s) => s.to_string(),
            Err(e) => return e.into(),
        };
        let (kernel, dims, specs) = match Session::resolve_spec(req, &source) {
            Ok(x) => x,
            Err(e) => return e.into(),
        };
        let entry = match self.optimized_module(&source, req.config, req.fault) {
            Ok(e) => e,
            Err(e) => return Outcome::fail(EXIT_BUILD, e),
        };
        let idx = match self.device_for(&entry, req.fault) {
            Ok(i) => i,
            Err(e) => return Outcome::fail(EXIT_SIM, e),
        };
        let deadline_ms = self.arm_device(idx, &Knobs::of(req));
        if let Some(f) = req.fault {
            if f.stage == ServeStage::Launch && f.panic {
                panic!("injected panic at launch stage");
            }
        }
        let launched = self.devices[idx].1.with(
            |d| -> Result<(String, String), (u8, String, Option<String>)> {
                let (rt_args, _buffers) =
                    oracle::materialize_args(d, &specs).map_err(|e| (EXIT_SIM, e, None))?;
                let (stats, profile) = d
                    .launch_plan_profiled(&kernel, &rt_args, dims)
                    .map_err(|e| classify_launch_error(e, deadline_ms))?;
                let profile = profile.expect("profiling was enabled");
                Ok((stats.snapshot().to_json(), profile.to_json()))
            },
        );
        match launched {
            Ok((stats, profile)) => {
                let mut w = JsonWriter::with_capacity(1024);
                w.begin_object();
                w.key("config").string(req.config.cli_name());
                w.key("kernel").string(&kernel);
                w.key("stats").raw(&stats);
                w.key("profile").raw(&profile);
                w.end_object();
                Outcome::ok(w.finish())
            }
            Err((code, msg, detail)) => match detail {
                Some(d) => Outcome::fail_with_detail(code, msg, d),
                None => Outcome::fail(code, msg),
            },
        }
    }

    fn op_verify(&mut self, req: &Request) -> Outcome {
        let source = match req.source() {
            Ok(s) => s.to_string(),
            Err(e) => return e.into(),
        };
        let spec = match ExampleSpec::parse(&source) {
            Ok(s) => s,
            Err(e) => {
                let mut w = JsonWriter::with_capacity(128);
                w.begin_object();
                w.key("name").string(&req.subject);
                w.key("passed").bool(false);
                w.key("configs").begin_array().end_array();
                w.key("failures").begin_array();
                w.string(&format!("spec error: {e}"));
                w.end_array();
                w.key("expected_failures").begin_array().end_array();
                w.end_object();
                return Outcome::ok_with_exit(EXIT_DIVERGED, w.finish());
            }
        };
        let failed = |config: BuildConfig, error: String| CaseResult {
            config,
            bits: None,
            stats: None,
            error: Some(error),
            pass_stats: Vec::new(),
        };
        let mut results: Vec<CaseResult> = Vec::with_capacity(ORACLE_CONFIGS.len());
        for &config in &ORACLE_CONFIGS {
            let entry = match self.optimized_module(&source, config, req.fault) {
                Ok(e) => e,
                Err(e) => {
                    results.push(failed(config, e));
                    continue;
                }
            };
            let idx = match self.device_for(&entry, req.fault) {
                Ok(i) => i,
                Err(e) => {
                    results.push(failed(config, e));
                    continue;
                }
            };
            let _ = self.arm_device(idx, &Knobs::of(req));
            let spec = &spec;
            let run = self.devices[idx].1.with(
                |d| -> Result<(Vec<u64>, omp_gpusim::StatsSnapshot), String> {
                    let (rt_args, buffers) = oracle::materialize_args(d, &spec.args)?;
                    let dims = LaunchDims {
                        teams: spec.teams,
                        threads: spec.threads,
                    };
                    let stats = d
                        .launch_plan(&spec.kernel, &rt_args, dims)
                        .map_err(|e| e.to_string())?;
                    let mut bits: Vec<u64> = Vec::new();
                    for (addr, len, is_f64) in buffers {
                        if is_f64 {
                            let v = d
                                .read_f64(addr, len)
                                .map_err(|e| format!("readback failed: {e}"))?;
                            bits.extend(v.iter().map(|x| x.to_bits()));
                        } else {
                            let v = d
                                .read_i64(addr, len)
                                .map_err(|e| format!("readback failed: {e}"))?;
                            bits.extend(v.iter().map(|x| *x as u64));
                        }
                    }
                    Ok((bits, stats.snapshot()))
                },
            );
            results.push(match run {
                Ok((bits, stats)) => CaseResult {
                    config,
                    bits: Some(bits),
                    stats: Some(stats),
                    error: None,
                    pass_stats: Vec::new(),
                },
                Err(e) => failed(config, e),
            });
        }
        let case = oracle::finish_case(&req.subject, results);
        let mut w = JsonWriter::with_capacity(512);
        w.begin_object();
        w.key("name").string(&case.name);
        w.key("passed").bool(case.passed());
        w.key("configs").begin_array();
        for r in &case.results {
            w.begin_object();
            w.key("config").string(r.config.cli_name());
            match (&r.stats, &r.error) {
                (Some(s), _) => {
                    w.key("stats").raw(&s.to_json());
                }
                (None, Some(e)) => {
                    w.key("error").string(e);
                }
                (None, None) => {}
            }
            w.end_object();
        }
        w.end_array();
        w.key("failures").begin_array();
        for f in &case.failures {
            w.string(f);
        }
        w.end_array();
        w.key("expected_failures").begin_array();
        for f in &case.expected_failures {
            w.string(f);
        }
        w.end_array();
        w.end_object();
        let exit = if case.passed() {
            EXIT_OK
        } else {
            EXIT_DIVERGED
        };
        Outcome::ok_with_exit(exit, w.finish())
    }

    fn op_sanitize(&mut self, req: &Request) -> Outcome {
        let source = match req.source() {
            Ok(s) => s.to_string(),
            Err(e) => return e.into(),
        };
        let spec = match ExampleSpec::parse(&source) {
            Ok(s) => s,
            Err(e) => return Outcome::fail(EXIT_BUILD, format!("spec error: {e}")),
        };
        let configs: Vec<BuildConfig> = if req.all_configs {
            ORACLE_CONFIGS.to_vec()
        } else {
            vec![req.config]
        };
        let mut outcomes: Vec<SanitizeOutcome> = Vec::with_capacity(configs.len());
        for &config in &configs {
            let setup_failed = |error: String| SanitizeOutcome {
                config,
                stats: None,
                error: None,
                setup_error: Some(error),
                findings: Vec::new(),
            };
            let entry = match self.optimized_module(&source, config, req.fault) {
                Ok(e) => e,
                Err(e) => {
                    outcomes.push(setup_failed(e));
                    continue;
                }
            };
            let idx = match self.device_for(&entry, req.fault) {
                Ok(i) => i,
                Err(e) => {
                    outcomes.push(setup_failed(e));
                    continue;
                }
            };
            let _ = self.arm_device(idx, &Knobs::of(req));
            let spec = &spec;
            let outcome = self.devices[idx].1.with(|d| {
                let (rt_args, _buffers) = match oracle::materialize_args(d, &spec.args) {
                    Ok(x) => x,
                    Err(e) => return setup_failed(e),
                };
                let dims = LaunchDims {
                    teams: spec.teams,
                    threads: spec.threads,
                };
                match d.launch_plan_checked(&spec.kernel, &rt_args, dims) {
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
            });
            outcomes.push(outcome);
        }
        let result = pipeline::sanitize_report_json(&req.subject, &outcomes);
        let exit = if outcomes.iter().any(|o| o.error_findings() > 0) {
            EXIT_FINDINGS
        } else if outcomes.iter().any(|o| o.error.is_some()) {
            EXIT_SIM
        } else if outcomes.iter().any(|o| o.setup_error.is_some()) {
            EXIT_BUILD
        } else {
            EXIT_OK
        };
        Outcome::ok_with_exit(exit, result)
    }

    /// The current metrics registry: the live latency/batch-size
    /// histograms plus every deterministic counter and gauge derived
    /// from [`SessionStats`] at call time. Deriving (rather than
    /// double-booking) keeps the `metrics` exposition consistent with
    /// the `stats` op by construction.
    pub fn metrics_registry(&self) -> omp_telemetry::MetricsRegistry {
        let mut reg = self.metrics.clone();
        reg.counter_add("serve.requests", self.stats.requests);
        reg.counter_add("serve.errors", self.stats.errors);
        for op in ALL_OPS {
            reg.counter_add(
                &format!("serve.ops.{op}"),
                self.stats.ops.get(op).copied().unwrap_or(0),
            );
        }
        for (tier, t) in [
            ("frontend", self.stats.frontend),
            ("optimized", self.stats.optimized),
            ("device", self.stats.device),
            ("graphs", self.stats.graphs),
        ] {
            reg.counter_add(&format!("serve.cache.{tier}.hits"), t.hits);
            reg.counter_add(&format!("serve.cache.{tier}.misses"), t.misses);
        }
        reg.counter_add("serve.batches", self.stats.batches);
        reg.counter_add("serve.batched_requests", self.stats.batched_requests);
        reg.counter_add("serve.timeout", self.stats.timeouts);
        reg.counter_add("serve.panic", self.stats.panics);
        reg.counter_add("serve.shed", self.shared.shed.load(Ordering::Relaxed));
        reg.counter_add("serve.retries", self.shared.retries.load(Ordering::Relaxed));
        reg.gauge_set("serve.device_entries", self.devices.len() as i64);
        reg.gauge_set("serve.device_capacity", self.device_capacity as i64);
        reg.gauge_set("serve.graph_entries", self.graphs.len() as i64);
        reg
    }

    /// The `metrics` result payload: the Prometheus text exposition and
    /// the JSON rendering of one registry snapshot.
    fn render_metrics(&self) -> String {
        let reg = self.metrics_registry();
        let mut w = JsonWriter::with_capacity(2048);
        w.begin_object();
        w.key("prometheus").string(&reg.render_prometheus());
        w.key("metrics");
        reg.write_json(&mut w);
        w.end_object();
        w.finish()
    }

    fn render_stats(&self) -> String {
        let mut w = JsonWriter::with_capacity(512);
        w.begin_object();
        w.key("requests").u64(self.stats.requests);
        w.key("errors").u64(self.stats.errors);
        w.key("ops").begin_object();
        for name in ALL_OPS {
            w.key(name)
                .u64(self.stats.ops.get(name).copied().unwrap_or(0));
        }
        w.end_object();
        w.key("cache").begin_object();
        w.key("frontend");
        self.stats.frontend.write_json(&mut w);
        w.key("optimized");
        self.stats.optimized.write_json(&mut w);
        w.key("device");
        self.stats.device.write_json(&mut w);
        w.key("graphs");
        self.stats.graphs.write_json(&mut w);
        w.end_object();
        w.key("total_hits").u64(self.stats.total_hits());
        w.key("device_entries").usize(self.devices.len());
        w.key("device_capacity").usize(self.device_capacity);
        w.key("graph_entries").usize(self.graphs.len());
        w.key("tier").string(self.env_tier.as_str());
        w.key("batches").u64(self.stats.batches);
        w.key("batched_requests").u64(self.stats.batched_requests);
        w.key("timeouts").u64(self.stats.timeouts);
        w.key("panics").u64(self.stats.panics);
        w.key("shed").u64(self.shared.shed.load(Ordering::Relaxed));
        w.key("retries")
            .u64(self.shared.retries.load(Ordering::Relaxed));
        w.end_object();
        w.finish()
    }

    fn envelope(&self, id: Option<u64>, op: Option<&str>, outcome: &Outcome) -> String {
        let mut w = JsonWriter::with_capacity(512);
        w.begin_object();
        w.key("schema").string(SCHEMA);
        w.key("id");
        match id {
            Some(n) => {
                w.u64(n);
            }
            None => {
                w.null();
            }
        }
        w.key("op");
        match op {
            Some(o) => {
                w.string(o);
            }
            None => {
                w.null();
            }
        }
        w.key("ok").bool(outcome.exit_code == EXIT_OK);
        w.key("exit_code").u64(outcome.exit_code as u64);
        w.key("cache");
        self.trace.write_json(&mut w);
        if let Some(r) = &outcome.result {
            w.key("result").raw(r);
        }
        if let Some((msg, detail)) = &outcome.error {
            w.key("error").begin_object();
            w.key("message").string(msg);
            if let Some(d) = detail {
                w.key("detail").raw(d);
            }
            w.end_object();
        }
        w.end_object();
        w.finish()
    }
}

/// Best-effort extraction of a panic payload's message (the common
/// `&str`/`String` payloads panics carry).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<non-string panic payload>")
}

/// Maps a launch failure to `(exit code, message, structured detail)`.
/// A watchdog timeout that fired under a binding request deadline *is*
/// the deadline expiring, so it is reported as the dedicated
/// deadline-exceeded error and exit code instead of a generic
/// simulation failure.
fn classify_launch_error(
    e: omp_gpusim::SimError,
    deadline_ms: Option<u64>,
) -> (u8, String, Option<String>) {
    if let (omp_gpusim::SimErrorKind::Timeout { .. }, Some(total)) = (&e.kind, deadline_ms) {
        let d = omp_gpusim::SimError::deadline_exceeded(total).with_threads(e.threads.clone());
        return (EXIT_TIMEOUT, d.to_string(), Some(d.to_json()));
    }
    (EXIT_SIM, e.to_string(), Some(e.to_json()))
}

/// Serializes the deterministic `compile` result payload. Pass timings
/// (wall clock) are deliberately excluded; everything here is a pure
/// function of (source, configuration).
fn render_compile_result(
    config: BuildConfig,
    module: &Module,
    ir_hash: u64,
    report: Option<&omp_opt::OptReport>,
) -> String {
    let mut w = JsonWriter::with_capacity(1024);
    w.begin_object();
    w.key("config").string(config.cli_name());
    w.key("module").string(&content_address(ir_hash));
    w.key("functions").usize(module.num_functions());
    w.key("kernels").begin_array();
    for k in &module.kernels {
        w.begin_object();
        w.key("name").string(&k.source_name);
        w.key("mode").string(&format!("{:?}", k.exec_mode));
        w.end_object();
    }
    w.end_array();
    match report {
        Some(r) => {
            let c = r.counts;
            w.key("counts").begin_object();
            w.key("internalized").usize(c.internalized);
            w.key("heap_to_stack").usize(c.heap_to_stack);
            w.key("heap_to_shared").usize(c.heap_to_shared);
            w.key("spmdized").usize(c.spmdized);
            w.key("csm_possible").usize(c.csm_possible);
            w.key("csm_rewritten").usize(c.csm_rewritten);
            w.key("csm_with_fallback").usize(c.csm_with_fallback);
            w.key("folds_exec_mode").usize(c.folds_exec_mode);
            w.key("folds_parallel_level").usize(c.folds_parallel_level);
            w.key("folds_launch_params").usize(c.folds_launch_params);
            w.key("guard_regions").usize(c.guard_regions);
            w.key("broadcasts").usize(c.broadcasts);
            w.end_object();
            w.key("remarks").begin_array();
            for remark in r.remarks.all() {
                w.raw(&remark.to_json());
            }
            w.end_array();
        }
        None => {
            w.key("counts").null();
            w.key("remarks").begin_array().end_array();
        }
    }
    w.end_object();
    w.finish()
}

// ---------------------------------------------------------------------
// Executor: one thread owning the session, FIFO over an MPSC queue
// ---------------------------------------------------------------------

/// One queued request: the raw JSON line plus the channel the serialized
/// response goes back on.
pub struct ServeJob {
    /// Raw request line (one JSON object).
    pub line: String,
    /// Reply channel for the serialized response envelope.
    pub reply: mpsc::Sender<String>,
    /// When the job entered the queue; the executor derives the
    /// queue-wait histogram and access-log field from it.
    pub enqueued: std::time::Instant,
}

impl ServeJob {
    /// A job stamped with the current time as its enqueue instant.
    pub fn new(line: String, reply: mpsc::Sender<String>) -> ServeJob {
        ServeJob {
            line,
            reply,
            enqueued: std::time::Instant::now(),
        }
    }
}

/// How one submission to the executor resolved.
enum Submit {
    /// The executor answered.
    Reply(String),
    /// Admission control shed the request (queue full).
    Shed,
    /// The executor is gone (shut down or crashed).
    Closed,
}

/// Handle to a running executor. Cloneable across client threads; every
/// clone feeds the same bounded FIFO queue.
#[derive(Clone)]
pub struct ExecutorHandle {
    tx: mpsc::SyncSender<ServeJob>,
    shared: Arc<ExecShared>,
}

impl ExecutorHandle {
    fn submit(&self, line: &str) -> Submit {
        let (reply_tx, reply_rx) = mpsc::channel();
        let job = ServeJob::new(line.to_string(), reply_tx);
        match self.tx.try_send(job) {
            Ok(()) => match reply_rx.recv() {
                Ok(resp) => Submit::Reply(resp),
                Err(_) => Submit::Closed,
            },
            Err(mpsc::TrySendError::Full(_)) => {
                self.shared.shed.fetch_add(1, Ordering::Relaxed);
                Submit::Shed
            }
            Err(mpsc::TrySendError::Disconnected(_)) => Submit::Closed,
        }
    }

    /// Submits one request line and blocks for its response. A full
    /// queue is shed immediately with an [`EXIT_OVERLOAD`] envelope
    /// carrying a `retry_after_ms` hint — admission control never makes
    /// a client hang — and a shut-down executor answers a synthesized
    /// usage-error envelope.
    pub fn request(&self, line: &str) -> String {
        match self.submit(line) {
            Submit::Reply(r) => r,
            Submit::Shed => overload_envelope(line),
            Submit::Closed => shutdown_envelope(line),
        }
    }

    /// Like [`ExecutorHandle::request`], but retries a shed submission
    /// up to `retries` times with capped exponential backoff
    /// ([`RETRY_AFTER_MS`] doubled per attempt, capped at 1 s). Returns
    /// the overload envelope if every attempt is shed.
    pub fn request_with_retry(&self, line: &str, retries: u32) -> String {
        let mut attempt: u32 = 0;
        loop {
            match self.submit(line) {
                Submit::Reply(r) => return r,
                Submit::Closed => return shutdown_envelope(line),
                Submit::Shed if attempt < retries => {
                    self.shared.retries.fetch_add(1, Ordering::Relaxed);
                    let backoff = (RETRY_AFTER_MS << attempt.min(5)).min(1_000);
                    std::thread::sleep(Duration::from_millis(backoff));
                    attempt += 1;
                }
                Submit::Shed => return overload_envelope(line),
            }
        }
    }

    /// True once the executor has processed a `shutdown` request (or
    /// exited); connection loops poll this instead of parsing response
    /// JSON on the hot path.
    pub fn is_shut_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// The shed/retry/shutdown accounting shared with the executor.
    pub fn shared(&self) -> Arc<ExecShared> {
        Arc::clone(&self.shared)
    }

    /// The raw job queue, for callers managing their own reply channels.
    /// A full queue blocks (no shedding) on this path.
    pub fn sender(&self) -> mpsc::SyncSender<ServeJob> {
        self.tx.clone()
    }
}

/// Builds a minimal response envelope for failures that happen outside
/// the session (shed or shut down — the request never reached the
/// executor, so there is no `cache` trace). Echoes `id`/`op` when the
/// request line parses; this is a cold path, so the extra parse is fine.
fn synthesized_envelope(
    line: &str,
    exit_code: u8,
    message: &str,
    retry_after_ms: Option<u64>,
) -> String {
    let parsed = omp_json::parse(line).ok();
    let id = parsed
        .as_ref()
        .and_then(|v| v.get("id"))
        .and_then(Value::as_u64);
    let op = parsed
        .as_ref()
        .and_then(|v| v.get("op"))
        .and_then(Value::as_str)
        .filter(|o| ALL_OPS.contains(o));
    let mut w = JsonWriter::with_capacity(192);
    w.begin_object();
    w.key("schema").string(SCHEMA);
    w.key("id");
    match id {
        Some(n) => {
            w.u64(n);
        }
        None => {
            w.null();
        }
    }
    w.key("op");
    match op {
        Some(o) => {
            w.string(o);
        }
        None => {
            w.null();
        }
    }
    w.key("ok").bool(false);
    w.key("exit_code").u64(exit_code as u64);
    w.key("error").begin_object();
    w.key("message").string(message);
    if let Some(ms) = retry_after_ms {
        w.key("retry_after_ms").u64(ms);
    }
    w.end_object();
    w.end_object();
    w.finish()
}

fn overload_envelope(line: &str) -> String {
    synthesized_envelope(
        line,
        EXIT_OVERLOAD,
        &format!("server overloaded: executor queue is full, retry after {RETRY_AFTER_MS} ms"),
        Some(RETRY_AFTER_MS),
    )
}

fn shutdown_envelope(line: &str) -> String {
    synthesized_envelope(line, EXIT_USAGE, "session is shut down", None)
}

/// Spawns the executor thread owning `session`. Requests are processed
/// strictly in arrival order; each wake-up drains everything queued
/// (the batch) before sleeping, and batch sizes are recorded in the
/// session statistics. The queue is bounded by the session's
/// [`Session::set_queue_capacity`] — a submission against a full queue
/// is shed by [`ExecutorHandle::request`], never blocked. The thread
/// exits — returning the session — when a `shutdown` request is
/// processed or every handle is dropped.
pub fn spawn_executor(session: Session) -> (ExecutorHandle, std::thread::JoinHandle<Session>) {
    let shared = session.shared();
    let (tx, rx) = mpsc::sync_channel::<ServeJob>(session.queue_capacity.max(1));
    let exec_shared = Arc::clone(&shared);
    let thread = std::thread::spawn(move || {
        let mut session = session;
        'outer: loop {
            let first = match rx.recv() {
                Ok(j) => j,
                Err(_) => break,
            };
            let mut batch = vec![first];
            while let Ok(j) = rx.try_recv() {
                batch.push(j);
            }
            session.note_batch(batch.len());
            let mut stop = false;
            for job in batch {
                let queue_micros = job.enqueued.elapsed().as_micros() as u64;
                let (resp, shutdown) = session.handle_line_timed(&job.line, queue_micros);
                if shutdown {
                    // Flip the flag before replying so a connection
                    // thread that sees the response also sees the flag.
                    exec_shared.shutdown.store(true, Ordering::SeqCst);
                }
                let _ = job.reply.send(resp);
                stop = stop || shutdown;
            }
            if stop {
                break 'outer;
            }
        }
        exec_shared.shutdown.store(true, Ordering::SeqCst);
        session
    });
    (ExecutorHandle { tx, shared }, thread)
}

// ---------------------------------------------------------------------
// Unix-socket daemon
// ---------------------------------------------------------------------

/// Runs the daemon: binds `socket`, accepts any number of concurrent
/// clients, and feeds their JSON-lines requests into a shared executor.
/// Returns after a `shutdown` request has been answered (the socket file
/// is removed on the way out).
pub fn serve_unix(socket: &Path, session: Session) -> Result<(), String> {
    let _ = std::fs::remove_file(socket);
    let listener =
        UnixListener::bind(socket).map_err(|e| format!("cannot bind {}: {e}", socket.display()))?;
    let (handle, exec_thread) = spawn_executor(session);
    let shutting = Arc::new(AtomicBool::new(false));
    eprintln!("ompgpu serve: listening on {}", socket.display());
    for stream in listener.incoming() {
        if shutting.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let handle = handle.clone();
        let shutting = Arc::clone(&shutting);
        let sock: PathBuf = socket.to_path_buf();
        // Connection threads are detached: a client that never
        // disconnects must not block shutdown (its next send simply
        // fails once the executor is gone).
        std::thread::spawn(move || serve_connection(stream, handle, shutting, sock));
    }
    drop(listener);
    drop(handle);
    let _ = exec_thread.join();
    let _ = std::fs::remove_file(socket);
    Ok(())
}

/// One frame read from a connection.
enum Frame {
    /// A complete line (newline stripped).
    Line(String),
    /// The line ran past the size limit; the reader discarded through
    /// the next newline, so the connection stays usable. Carries the
    /// total number of bytes in the oversized line.
    TooLarge(usize),
    /// End of stream (or a read error).
    Eof,
}

/// Reads one newline-terminated frame, buffering at most `max + 1`
/// bytes no matter how long the incoming line is — a single client
/// cannot make the daemon buffer an unbounded frame.
fn read_frame(reader: &mut impl BufRead, max: usize) -> Frame {
    let mut buf: Vec<u8> = Vec::new();
    let mut total: usize = 0;
    loop {
        let chunk = match reader.fill_buf() {
            Ok([]) => {
                return match (total, total > max) {
                    (0, _) => Frame::Eof,
                    (_, true) => Frame::TooLarge(total),
                    (_, false) => Frame::Line(String::from_utf8_lossy(&buf).into_owned()),
                }
            }
            Ok(c) => c,
            Err(_) => return Frame::Eof,
        };
        let (line_bytes, consumed, complete) = match chunk.iter().position(|b| *b == b'\n') {
            Some(pos) => (pos, pos + 1, true),
            None => (chunk.len(), chunk.len(), false),
        };
        if total <= max {
            // Keep at most one byte past the limit: enough to detect
            // overflow without buffering the rest of a huge line.
            let keep = line_bytes.min(max + 1 - total);
            buf.extend_from_slice(&chunk[..keep]);
        }
        total += line_bytes;
        reader.consume(consumed);
        if complete {
            return if total > max {
                Frame::TooLarge(total)
            } else {
                Frame::Line(String::from_utf8_lossy(&buf).into_owned())
            };
        }
    }
}

fn serve_connection(
    stream: UnixStream,
    handle: ExecutorHandle,
    shutting: Arc<AtomicBool>,
    socket: PathBuf,
) {
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let mut writer = stream;
    loop {
        let resp = match read_frame(&mut reader, MAX_FRAME_BYTES) {
            Frame::Eof => break,
            Frame::TooLarge(n) => synthesized_envelope(
                "",
                EXIT_USAGE,
                &format!("frame too large: {n} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"),
                None,
            ),
            Frame::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                handle.request(&line)
            }
        };
        if writer.write_all(resp.as_bytes()).is_err() || writer.write_all(b"\n").is_err() {
            break;
        }
        let _ = writer.flush();
        // The executor flips the shared shutdown flag before answering
        // a `shutdown` request; polling it here replaces the old
        // re-parse of every response JSON on the hot path. Poke the
        // listener with a throwaway connection to stop the accept loop.
        if handle.is_shut_down() {
            shutting.store(true, Ordering::SeqCst);
            let _ = UnixStream::connect(&socket);
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
// oracle-kernel: scale
// oracle-teams: 2
// oracle-threads: 8
// oracle-arg: buf f64 32 iota
// oracle-arg: f64 3.0
// oracle-arg: i64 32
void scale(double* a, double f, long n) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < n; i++) { a[i] = a[i] * f; }
}
"#;

    fn request(session: &mut Session, json: &str) -> Value {
        let (resp, _) = session.handle_line(json);
        omp_json::parse(&resp).expect("response is valid JSON")
    }

    fn result_of(v: &Value) -> String {
        v.get("result").expect("result present").to_json()
    }

    #[test]
    fn ping_stats_and_unknown_op() {
        let mut s = Session::default();
        let v = request(&mut s, "{\"op\":\"ping\",\"id\":7}");
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(7));
        assert_eq!(v.get("schema").and_then(Value::as_str), Some(SCHEMA));
        let v = request(&mut s, "{\"op\":\"nope\"}");
        assert_eq!(v.get("exit_code").and_then(Value::as_u64), Some(2));
        let v = request(&mut s, "not json");
        assert_eq!(v.get("exit_code").and_then(Value::as_u64), Some(2));
        let v = request(&mut s, "{\"op\":\"stats\"}");
        assert_eq!(
            v.get("result")
                .and_then(|r| r.get("requests"))
                .and_then(Value::as_u64),
            Some(4),
            "stats counts every request including itself"
        );
    }

    #[test]
    fn compile_hits_cache_with_identical_result() {
        let mut s = Session::default();
        let line = format!(
            "{{\"op\":\"compile\",\"source\":{:?},\"config\":\"dev\"}}",
            SRC
        );
        let cold = request(&mut s, &line);
        assert_eq!(cold.get("ok").and_then(Value::as_bool), Some(true));
        let cache = cold.get("cache").unwrap();
        assert_eq!(
            cache
                .get("optimized")
                .and_then(|t| t.get("misses"))
                .and_then(Value::as_u64),
            Some(1)
        );
        let warm = request(&mut s, &line);
        let cache = warm.get("cache").unwrap();
        assert_eq!(
            cache
                .get("optimized")
                .and_then(|t| t.get("hits"))
                .and_then(Value::as_u64),
            Some(1)
        );
        assert_eq!(
            result_of(&cold),
            result_of(&warm),
            "cold and warm compile results must be byte-identical"
        );
    }

    #[test]
    fn run_via_oracle_header_is_warm_deterministic() {
        let mut s = Session::default();
        let line = format!("{{\"op\":\"run\",\"source\":{:?},\"dump\":4}}", SRC);
        let cold = request(&mut s, &line);
        assert_eq!(
            cold.get("exit_code").and_then(Value::as_u64),
            Some(0),
            "{}",
            cold.to_json()
        );
        let warm = request(&mut s, &line);
        assert_eq!(
            warm.get("cache")
                .and_then(|c| c.get("device"))
                .and_then(|t| t.get("hits"))
                .and_then(Value::as_u64),
            Some(1),
            "second run must reuse the warmed device"
        );
        assert_eq!(result_of(&cold), result_of(&warm));
    }

    #[test]
    fn verify_passes_and_is_warm_deterministic() {
        let mut s = Session::default();
        let line = format!(
            "{{\"op\":\"verify\",\"source\":{:?},\"name\":\"scale\"}}",
            SRC
        );
        let cold = request(&mut s, &line);
        assert_eq!(
            cold.get("exit_code").and_then(Value::as_u64),
            Some(0),
            "{}",
            cold.to_json()
        );
        assert_eq!(
            cold.get("result")
                .and_then(|r| r.get("passed"))
                .and_then(Value::as_bool),
            Some(true)
        );
        let warm = request(&mut s, &line);
        assert_eq!(result_of(&cold), result_of(&warm));
        assert!(
            warm.get("cache")
                .and_then(|c| c.get("device"))
                .and_then(|t| t.get("hits"))
                .and_then(Value::as_u64)
                .unwrap()
                > 0
        );
    }

    #[test]
    fn executor_round_trip_and_shutdown() {
        let (handle, thread) = spawn_executor(Session::default());
        assert!(!handle.is_shut_down());
        let resp = handle.request("{\"op\":\"ping\",\"id\":1}");
        assert!(resp.contains("\"pong\":true"));
        let resp = handle.request("{\"op\":\"shutdown\",\"id\":2}");
        assert!(resp.contains("\"shutting_down\":true"));
        assert!(
            handle.is_shut_down(),
            "shutdown flag is visible to connection threads once the response is out"
        );
        let session = thread.join().unwrap();
        assert_eq!(session.stats().requests, 2);
        // Post-shutdown requests fail gracefully.
        let resp = handle.request("{\"op\":\"ping\"}");
        assert!(resp.contains("session is shut down"));
    }

    #[test]
    fn full_queue_sheds_with_structured_overload() {
        // An executor handle over a capacity-1 queue nobody drains:
        // the first job parks in the buffer, the second is shed.
        let (tx, _rx) = mpsc::sync_channel::<ServeJob>(1);
        let handle = ExecutorHandle {
            tx,
            shared: Arc::new(ExecShared::default()),
        };
        let (reply_tx, _reply_rx) = mpsc::channel();
        handle
            .sender()
            .try_send(ServeJob::new("{\"op\":\"ping\"}".into(), reply_tx))
            .expect("first job fits");
        let resp = handle.request("{\"op\":\"ping\",\"id\":9}");
        let v = omp_json::parse(&resp).expect("shed envelope is valid JSON");
        assert_eq!(v.get("schema").and_then(Value::as_str), Some(SCHEMA));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(
            v.get("exit_code").and_then(Value::as_u64),
            Some(EXIT_OVERLOAD as u64)
        );
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(9), "id echoed");
        assert_eq!(v.get("op").and_then(Value::as_str), Some("ping"));
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("retry_after_ms"))
                .and_then(Value::as_u64),
            Some(RETRY_AFTER_MS)
        );
        assert_eq!(handle.shared().shed.load(Ordering::Relaxed), 1);
        // Retries back off and are counted; the queue never drains, so
        // the final answer is still the overload envelope.
        let resp = handle.request_with_retry("{\"op\":\"ping\"}", 2);
        assert!(resp.contains("server overloaded"));
        assert_eq!(handle.shared().retries.load(Ordering::Relaxed), 2);
        assert_eq!(handle.shared().shed.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn deadline_zero_times_out_before_dispatch() {
        let mut s = Session::default();
        let line = format!(
            "{{\"op\":\"run\",\"source\":{:?},\"deadline_ms\":0,\"id\":3}}",
            SRC
        );
        let v = request(&mut s, &line);
        assert_eq!(
            v.get("exit_code").and_then(Value::as_u64),
            Some(EXIT_TIMEOUT as u64)
        );
        let msg = v
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Value::as_str)
            .unwrap();
        assert_eq!(msg, "request deadline of 0 ms exceeded");
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("detail"))
                .and_then(|d| d.get("kind"))
                .and_then(Value::as_str),
            Some("deadline-exceeded")
        );
        assert_eq!(s.stats().timeouts, 1);
        // Nothing was dispatched: every tier is untouched and the
        // session is still usable.
        assert_eq!(s.stats().frontend, TierStats::default());
        let v = request(&mut s, &format!("{{\"op\":\"run\",\"source\":{:?}}}", SRC));
        assert_eq!(v.get("exit_code").and_then(Value::as_u64), Some(0));
    }

    #[test]
    fn deadline_mid_launch_times_out_and_quarantines_device() {
        // A kernel that runs far longer than the 50 ms deadline; the
        // watchdog is narrowed to the remaining deadline budget and the
        // expiry is reported as deadline-exceeded, not a generic
        // simulation failure.
        let slow = SRC
            .replace("oracle-arg: i64 32", "oracle-arg: i64 2000000000")
            .replace("a[i] = a[i] * f", "a[0] = a[0] + f");
        let mut s = Session::default();
        let line = format!(
            "{{\"op\":\"run\",\"source\":{:?},\"deadline_ms\":50,\"watchdog_secs\":60,\
             \"max_insts\":400000000000}}",
            slow
        );
        let v = request(&mut s, &line);
        assert_eq!(
            v.get("exit_code").and_then(Value::as_u64),
            Some(EXIT_TIMEOUT as u64),
            "{}",
            v.to_json()
        );
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("detail"))
                .and_then(|d| d.get("kind"))
                .and_then(Value::as_str),
            Some("deadline-exceeded")
        );
        assert_eq!(s.stats().timeouts, 1);
        // The interrupted device was quarantined, so a healthy run of
        // the same source builds a cold device again...
        let ok_line = format!("{{\"op\":\"run\",\"source\":{:?},\"dump\":2}}", SRC);
        let healthy = request(&mut s, &ok_line);
        assert_eq!(healthy.get("exit_code").and_then(Value::as_u64), Some(0));
        // ...and its result is byte-identical to a fresh session's.
        let mut fresh = Session::default();
        let reference = request(&mut fresh, &ok_line);
        assert_eq!(result_of(&healthy), result_of(&reference));
    }

    #[test]
    fn injected_faults_degrade_each_stage_cleanly() {
        let mut s = Session::default();
        let fault_line = |stage: &str| {
            format!(
                "{{\"op\":\"run\",\"source\":{:?},\"fault\":{{\"stage\":{:?}}}}}",
                SRC, stage
            )
        };
        for (stage, exit) in [
            ("frontend", EXIT_BUILD),
            ("optimize", EXIT_BUILD),
            ("device", EXIT_SIM),
        ] {
            let v = request(&mut s, &fault_line(stage));
            assert_eq!(
                v.get("exit_code").and_then(Value::as_u64),
                Some(exit as u64),
                "stage {stage}: {}",
                v.to_json()
            );
            let msg = v
                .get("error")
                .and_then(|e| e.get("message"))
                .and_then(Value::as_str)
                .unwrap();
            assert!(msg.contains(stage), "stage {stage}: {msg}");
        }
        // Error-mode launch faults go through the simulator's own
        // FaultPlan, so the failure surfaces as a structured
        // ompgpu-error/v1 fault-injected diagnostic.
        let v = request(&mut s, &fault_line("launch"));
        assert_eq!(
            v.get("exit_code").and_then(Value::as_u64),
            Some(EXIT_SIM as u64)
        );
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("detail"))
                .and_then(|d| d.get("kind"))
                .and_then(Value::as_str),
            Some("fault-injected")
        );
        // No failed request may populate a cache tier.
        assert_eq!(s.stats().frontend.hits, 0, "no tier served a warm entry");
        let clean = request(&mut s, &format!("{{\"op\":\"run\",\"source\":{:?}}}", SRC));
        assert_eq!(
            clean
                .get("cache")
                .and_then(|c| c.get("frontend"))
                .and_then(|t| t.get("misses"))
                .and_then(Value::as_u64),
            Some(1),
            "faulted requests left no frontend entry behind"
        );
        // Unknown stages and modes are usage errors.
        let v = request(
            &mut s,
            &format!(
                "{{\"op\":\"run\",\"source\":{:?},\"fault\":{{\"stage\":\"nope\"}}}}",
                SRC
            ),
        );
        assert_eq!(v.get("exit_code").and_then(Value::as_u64), Some(2));
    }

    #[test]
    fn panic_is_isolated_and_rolls_back_every_tier() {
        let mut s = Session::default();
        let line = format!(
            "{{\"op\":\"compile\",\"source\":{:?},\"fault\":{{\"stage\":\"optimize\",\"mode\":\"panic\"}}}}",
            SRC
        );
        let v = request(&mut s, &line);
        assert_eq!(
            v.get("exit_code").and_then(Value::as_u64),
            Some(EXIT_INTERNAL as u64)
        );
        let msg = v
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Value::as_str)
            .unwrap();
        assert_eq!(
            msg,
            "internal: request panicked: injected panic at optimize stage"
        );
        assert_eq!(s.stats().panics, 1);
        // The frontend insertion made before the panic was rolled back:
        // a clean compile misses cold again, and its result is
        // byte-identical to a fresh session's.
        let clean_line = format!("{{\"op\":\"compile\",\"source\":{:?}}}", SRC);
        let clean = request(&mut s, &clean_line);
        assert_eq!(
            clean
                .get("cache")
                .and_then(|c| c.get("frontend"))
                .and_then(|t| t.get("misses"))
                .and_then(Value::as_u64),
            Some(1)
        );
        let mut fresh = Session::default();
        let reference = request(&mut fresh, &clean_line);
        assert_eq!(result_of(&clean), result_of(&reference));
    }

    #[test]
    fn oversized_frames_are_rejected_structurally() {
        let mut s = Session::default();
        let huge = format!(
            "{{\"op\":\"ping\",\"pad\":\"{}\"}}",
            "x".repeat(MAX_FRAME_BYTES)
        );
        let v = request(&mut s, &huge);
        assert_eq!(v.get("exit_code").and_then(Value::as_u64), Some(2));
        let msg = v
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Value::as_str)
            .unwrap();
        assert!(msg.starts_with("frame too large:"), "{msg}");
        let v = request(&mut s, "{\"op\":\"ping\"}");
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn read_frame_bounds_the_line_buffer() {
        use std::io::Cursor;
        let mut data = Vec::new();
        data.extend_from_slice(&[b'a'; 100]);
        data.push(b'\n');
        data.extend_from_slice(b"ok\n");
        data.extend_from_slice(b"tail-no-newline");
        let mut reader = Cursor::new(data);
        match read_frame(&mut reader, 10) {
            Frame::TooLarge(n) => assert_eq!(n, 100),
            _ => panic!("oversized line must be rejected"),
        }
        match read_frame(&mut reader, 10) {
            Frame::Line(l) => assert_eq!(l, "ok", "connection stays usable after overflow"),
            _ => panic!("short line after overflow must parse"),
        }
        match read_frame(&mut reader, 1024) {
            Frame::Line(l) => assert_eq!(l, "tail-no-newline"),
            _ => panic!("trailing unterminated line is returned at EOF"),
        }
        match read_frame(&mut reader, 1024) {
            Frame::Eof => {}
            _ => panic!("exhausted reader yields Eof"),
        }
    }

    #[test]
    fn env_override_parsers_are_strict() {
        assert_eq!(parse_max_insts("123"), Ok(123));
        assert!(parse_max_insts("").is_err());
        assert!(parse_max_insts("12k").is_err());
        assert!(parse_max_insts("-5").is_err());
        assert!(parse_tier("interp").is_ok());
        assert!(parse_tier("compiled").is_ok());
        assert!(parse_tier("turbo").is_err());
    }

    /// Parse Prometheus text exposition into (plain samples, bucket samples).
    ///
    /// Plain samples map a metric name (including `_sum`/`_count` suffixes)
    /// to its value; bucket samples map `(name, le)` to a cumulative count.
    fn parse_prometheus(
        text: &str,
    ) -> (
        std::collections::BTreeMap<String, u64>,
        std::collections::BTreeMap<(String, String), u64>,
    ) {
        let mut plain = std::collections::BTreeMap::new();
        let mut buckets = std::collections::BTreeMap::new();
        for line in text.lines() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (name_part, value_part) = line.rsplit_once(' ').expect("sample has a value");
            let value: u64 = value_part.parse().expect("sample value parses as u64");
            if let Some(idx) = name_part.find('{') {
                let name = &name_part[..idx];
                let labels = name_part[idx..]
                    .strip_prefix("{le=\"")
                    .and_then(|s| s.strip_suffix("\"}"))
                    .expect("only le labels are emitted");
                assert!(name.ends_with("_bucket"), "labelled sample is a bucket");
                buckets.insert((name.to_string(), labels.to_string()), value);
            } else {
                plain.insert(name_part.to_string(), value);
            }
        }
        (plain, buckets)
    }

    #[test]
    fn metrics_exposition_is_consistent() {
        let mut s = Session::default();
        request(&mut s, "{\"op\":\"ping\"}");
        let line = format!("{{\"op\":\"run\",\"source\":{:?}}}", SRC);
        request(&mut s, &line);
        request(&mut s, &line);
        request(&mut s, "{\"op\":\"nonsense\"}");
        let resp = request(&mut s, "{\"op\":\"metrics\"}");
        let result = resp.get("result").expect("metrics returns a result");
        let prom = result
            .get("prometheus")
            .and_then(Value::as_str)
            .expect("prometheus text rendering");
        let json = result.get("metrics").expect("json rendering");

        let (plain, buckets) = parse_prometheus(prom);

        // Deterministic counters derived from SessionStats.
        let counters = json
            .get("counters")
            .and_then(Value::as_object)
            .expect("counters object");
        assert!(!counters.is_empty());
        for (name, value) in counters {
            let v = value.as_u64().expect("counter is u64");
            let sanitized = omp_telemetry::sanitize_metric_name(name);
            assert_eq!(
                plain.get(&sanitized).copied(),
                Some(v),
                "counter {name} must match between renderings"
            );
        }
        assert_eq!(
            counters
                .iter()
                .find(|(k, _)| k == "serve.requests")
                .and_then(|(_, v)| v.as_u64()),
            Some(5),
            "metrics request counts itself"
        );
        assert_eq!(
            counters
                .iter()
                .find(|(k, _)| k == "serve.ops.metrics")
                .and_then(|(_, v)| v.as_u64()),
            Some(1)
        );
        assert_eq!(
            counters
                .iter()
                .find(|(k, _)| k == "serve.errors")
                .and_then(|(_, v)| v.as_u64()),
            Some(1),
            "the unknown op is the only error"
        );

        // Gauges appear in both renderings too.
        for (name, value) in json.get("gauges").and_then(Value::as_object).unwrap() {
            let v = value.as_i64().expect("gauge is i64");
            let sanitized = omp_telemetry::sanitize_metric_name(name);
            assert_eq!(plain.get(&sanitized).copied(), Some(v as u64));
        }

        // Histograms: _count/_sum and cumulative buckets must agree with the
        // JSON rendering's non-cumulative, non-empty bucket map.
        let histograms = json
            .get("histograms")
            .and_then(Value::as_object)
            .expect("histograms object");
        assert!(
            histograms
                .iter()
                .any(|(k, _)| k == "serve.service_micros.run"),
            "per-op latency histogram is exported"
        );
        for (name, h) in histograms {
            let sanitized = omp_telemetry::sanitize_metric_name(name);
            let count = h.get("count").and_then(Value::as_u64).unwrap();
            let sum = h.get("sum").and_then(Value::as_u64).unwrap();
            assert_eq!(
                plain.get(&format!("{sanitized}_count")).copied(),
                Some(count)
            );
            assert_eq!(plain.get(&format!("{sanitized}_sum")).copied(), Some(sum));
            let bucket_name = format!("{sanitized}_bucket");
            assert_eq!(
                buckets
                    .get(&(bucket_name.clone(), "+Inf".to_string()))
                    .copied(),
                Some(count),
                "{name}: +Inf bucket is the total count"
            );
            // De-cumulate the finite text buckets and compare with JSON.
            let mut finite: Vec<(u64, u64)> = buckets
                .iter()
                .filter(|((n, le), _)| n == &bucket_name && le != "+Inf")
                .map(|((_, le), v)| (le.parse::<u64>().expect("finite bound"), *v))
                .collect();
            finite.sort_unstable();
            let mut prev = 0u64;
            let mut derived: Vec<(String, u64)> = Vec::new();
            for (bound, cumulative) in finite {
                let per_bucket = cumulative - prev;
                prev = cumulative;
                if per_bucket > 0 {
                    derived.push((bound.to_string(), per_bucket));
                }
            }
            let json_buckets: Vec<(String, u64)> = h
                .get("buckets")
                .and_then(Value::as_object)
                .unwrap()
                .iter()
                .filter(|(k, _)| k != "inf")
                .map(|(k, v)| (k.clone(), v.as_u64().unwrap()))
                .collect();
            assert_eq!(derived, json_buckets, "{name}: bucket counts must agree");
        }
    }

    #[test]
    fn access_log_writes_one_record_per_request() {
        let path = std::env::temp_dir().join(format!(
            "ompgpu_access_log_test_{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut s = Session::default();
        s.set_access_log(&path).expect("access log opens");
        request(&mut s, "{\"op\":\"ping\",\"id\":7}");
        let (resp, _) = s.handle_line("not json");
        assert!(resp.contains("\"ok\":false"));
        let log = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines.len(), 2, "one record per request");
        let first = omp_json::parse(lines[0]).expect("access-log line is valid JSON");
        assert_eq!(
            first.get("schema").and_then(Value::as_str),
            Some(omp_telemetry::ACCESS_LOG_SCHEMA)
        );
        assert_eq!(first.get("id").and_then(Value::as_u64), Some(7));
        assert_eq!(first.get("op").and_then(Value::as_str), Some("ping"));
        assert_eq!(first.get("ok").and_then(Value::as_bool), Some(true));
        assert!(first.get("bytes").and_then(Value::as_u64).unwrap() > 0);
        let second = omp_json::parse(lines[1]).unwrap();
        assert_eq!(second.get("ok").and_then(Value::as_bool), Some(false));
        assert!(second.get("op").unwrap().as_str().is_none(), "op is null");
    }

    #[test]
    fn device_lru_evicts_oldest() {
        let mut s = Session::new(1);
        let src_b = SRC.replace("scale", "scale2");
        let line_a = format!("{{\"op\":\"run\",\"source\":{:?}}}", SRC);
        let line_b = format!("{{\"op\":\"run\",\"source\":{:?}}}", src_b);
        request(&mut s, &line_a);
        request(&mut s, &line_b);
        let third = request(&mut s, &line_a);
        assert_eq!(
            third
                .get("cache")
                .and_then(|c| c.get("device"))
                .and_then(|t| t.get("misses"))
                .and_then(Value::as_u64),
            Some(1),
            "capacity-1 LRU must have evicted the first device"
        );
        assert_eq!(s.stats().device.hits, 0);
    }
}
