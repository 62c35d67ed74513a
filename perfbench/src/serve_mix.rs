//! The `serve-mix` workload: a seeded request stream against a real
//! `ompgpu serve` child process.
//!
//! One closed-loop client connection sends a request, waits for its
//! reply as `ompgpu client` does, then sends the next. The stream draws
//! sources from the `examples/omp` programs under the six OpenMP
//! configurations of the oracle matrix, plus seeded novel variants;
//! four in five requests repeat one of the nine most recently
//! introduced requests of the same op, a pool of 45 requests that spans
//! far more modules than the daemon's 8-entry device LRU.

use crate::hostspeed::Clock;
use crate::inproc::{live_insts, Counts};
use crate::stats::{geomean, Rng};
use crate::trace::Tracer;
use crate::Example;
use omp_gpu::oracle::{self, ORACLE_CONFIGS};
use omp_gpu::{pipeline, BuildConfig, Module, ProfileMode, SanitizeMode};
use omp_gpusim::{CapturedGraph, OwnedDevice};
use omp_json::Value;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests in one pass: the seeded stream a fresh daemon is sent.
/// A run sends whole passes until its time limit has passed.
pub const PASS_REQUESTS: usize = 1000;
/// Repeats draw from this many most recently introduced requests of
/// the same op: the number of examples, so a window spans all of them.
pub const REPEAT_WINDOW: usize = 9;
/// The daemon's default warm-device LRU capacity.
const DEVICE_CAPACITY: usize = 8;

/// Op weights copy the `bench_serve` corpus: compile, run, profile and
/// sanitize in equal parts, verify one in nine.
pub const OPS: [(&str, usize); 5] = [
    ("compile", 2),
    ("run", 2),
    ("profile", 2),
    ("sanitize", 2),
    ("verify", 1),
];

/// One distinct request: op, example, configuration (index into
/// `ORACLE_CONFIGS`) and source variant (0 is the unmodified example).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReqKey {
    pub op: u8,
    pub example: u8,
    pub config: u8,
    pub variant: u32,
}

impl ReqKey {
    pub fn op_name(&self) -> &'static str {
        OPS[self.op as usize].0
    }

    fn config(&self) -> BuildConfig {
        ORACLE_CONFIGS[self.config as usize]
    }
}

/// The seeded request stream.
///
/// Every seed shares one request pattern, [`pattern`]; the seed only
/// chooses which example and which configuration fill each of its
/// slots (a permutation of each). So every seed gives the same mix,
/// the same repeats and the same cache and device-LRU outcomes, and
/// runs with different seeds measure the same load. With a pattern of
/// its own per seed, the share of warm requests that reuse an
/// already-reset device ranged from 0.31 to 0.55 between seeds, and
/// the warm median jumped between 9 and 38 ms with it.
pub fn stream(seed: u64, len: usize, examples: usize) -> Vec<ReqKey> {
    let mut rng = Rng::new(seed);
    let mut example_of: Vec<usize> = (0..examples).collect();
    rng.shuffle(&mut example_of);
    let mut config_of: Vec<usize> = (0..ORACLE_CONFIGS.len()).collect();
    rng.shuffle(&mut config_of);
    pattern(len, examples)
        .into_iter()
        .map(|k| ReqKey {
            example: example_of[k.example as usize] as u8,
            config: config_of[k.config as usize] as u8,
            ..k
        })
        .collect()
}

/// Seed of the request pattern every stream shares.
const PATTERN_SEED: u64 = 0x5E2F_E417;

/// The request pattern, as drawn from [`PATTERN_SEED`]. Its orders are
/// random, its proportions fixed:
///
/// * ops follow blocks of nine slots holding each op its weight's
///   number of times, shuffled per block;
/// * one slot in every block of five introduces a new request, the
///   other four repeat one of the last [`REPEAT_WINDOW`] requests
///   introduced for the slot's op, each window position once per
///   [`REPEAT_WINDOW`] repeats;
/// * an op's new requests cycle through the examples in a random order
///   (so any window holds each example once) and step through the
///   configurations every [`REPEAT_WINDOW`] requests; every third is a
///   novel variant.
fn pattern(len: usize, examples: usize) -> Vec<ReqKey> {
    let mut rng = Rng::new(PATTERN_SEED);
    let ops = OPS.len();
    let perm = |rng: &mut Rng, n: usize| {
        let mut p: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut p);
        p
    };
    let example_order: Vec<Vec<usize>> = (0..ops).map(|_| perm(&mut rng, examples)).collect();
    let config_order: Vec<Vec<usize>> = (0..ops)
        .map(|_| perm(&mut rng, ORACLE_CONFIGS.len()))
        .collect();
    let mut op_block: Vec<usize> = Vec::new();
    let mut new_slot = 0;
    let mut introduced = vec![0usize; ops];
    let mut windows: Vec<Vec<ReqKey>> = vec![Vec::new(); ops];
    let mut positions: Vec<Vec<usize>> = vec![Vec::new(); ops];
    let mut seen = std::collections::HashSet::new();
    let mut next_variant = 1u32;
    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        if op_block.is_empty() {
            op_block = OPS
                .iter()
                .enumerate()
                .flat_map(|(op, (_, w))| std::iter::repeat_n(op, *w))
                .collect();
            rng.shuffle(&mut op_block);
        }
        let op = op_block.pop().expect("block refilled above");
        if i % 5 == 0 {
            new_slot = rng.below(5);
        }
        if i % 5 != new_slot && !windows[op].is_empty() {
            if positions[op].is_empty() {
                positions[op] = perm(&mut rng, REPEAT_WINDOW);
            }
            let pos = positions[op].pop().expect("positions refilled above");
            let window = &windows[op];
            out.push(window[pos % window.len()]);
            continue;
        }
        let k = introduced[op];
        introduced[op] += 1;
        let mut key = ReqKey {
            op: op as u8,
            example: example_order[op][k % examples] as u8,
            config: config_order[op][(k / REPEAT_WINDOW) % ORACLE_CONFIGS.len()] as u8,
            variant: 0,
        };
        if k % 3 == 2 || seen.contains(&key) {
            key.variant = next_variant;
            next_variant += 1;
        }
        seen.insert(key);
        let window = &mut windows[op];
        window.push(key);
        if window.len() > REPEAT_WINDOW {
            window.remove(0);
        }
        out.push(key);
    }
    out
}

/// Source text of a request: the example, or for a novel variant the
/// example plus one host function whose constant is the variant number,
/// so the content hash and the IR change while the kernel does not.
pub fn source_of(key: &ReqKey, examples: &[Example]) -> String {
    let base = &examples[key.example as usize].source;
    match key.variant {
        0 => base.clone(),
        v => format!("{base}\ndouble perfbench_variant(double x) {{ return x * {v}.5; }}\n"),
    }
}

/// A request frame; `id: None` keeps it out of the access-log replay.
pub fn request_line(id: Option<u64>, key: &ReqKey, examples: &[Example]) -> String {
    let mut w = omp_json::JsonWriter::with_capacity(2048);
    w.begin_object();
    if let Some(id) = id {
        w.key("id").u64(id);
    }
    w.key("op").string(key.op_name());
    w.key("name").string(&examples[key.example as usize].name);
    w.key("source").string(&source_of(key, examples));
    w.key("config").string(key.config().cli_name());
    w.end_object();
    w.finish()
}

/// The exit code a correct daemon answers: the sanitizer must flag the
/// two examples that race on purpose, and nothing else fails.
pub fn expected_exit(key: &ReqKey, examples: &[Example]) -> u64 {
    let name = examples[key.example as usize].name.as_str();
    if key.op_name() == "sanitize" && matches!(name, "task_race" | "task_pipeline") {
        5
    } else {
        0
    }
}

// ---------------------------------------------------------------------
// The daemon
// ---------------------------------------------------------------------

/// A running `ompgpu serve` child. Dropping it kills and reaps the
/// child if it has not been shut down.
pub struct Daemon {
    child: Child,
    pub socket: PathBuf,
    pub access_log: PathBuf,
}

impl Daemon {
    /// Starts the daemon and waits until it answers a ping.
    pub fn start(ompgpu: &Path, dir: &Path, tag: &str) -> Result<Daemon, String> {
        let socket = dir.join(format!("s{}-{tag}.sock", std::process::id()));
        let access_log = dir.join(format!("access-{}-{tag}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let _ = std::fs::remove_file(&access_log);
        let child = Command::new(ompgpu)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .arg("--access-log")
            .arg(&access_log)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", ompgpu.display()))?;
        let mut d = Daemon {
            child,
            socket,
            access_log,
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(Some(status)) = d.child.try_wait() {
                return Err(format!("ompgpu serve exited at startup: {status}"));
            }
            if let Ok(mut conn) = Connection::open(&d.socket) {
                let pong = conn.request("{\"op\":\"ping\"}")?;
                if !pong.contains("\"pong\":true") {
                    return Err(format!("unexpected ping reply: {pong}"));
                }
                return Ok(d);
            }
            if Instant::now() > deadline {
                return Err("ompgpu serve did not come up within 30 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Peak resident set (VmHWM) of the daemon, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        crate::peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `shutdown` and waits for the child to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let mut conn = Connection::open(&self.socket)?;
        conn.request("{\"op\":\"shutdown\"}")?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => return Err("ompgpu serve did not exit after shutdown".to_string()),
            }
        }
        let _ = std::fs::remove_file(&self.socket);
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One client connection speaking JSON lines.
pub struct Connection {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Connection {
    pub fn open(socket: &Path) -> Result<Connection, String> {
        let writer = UnixStream::connect(socket).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Connection { writer, reader })
    }

    pub fn request(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send failed: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("daemon closed the connection".to_string()),
            Ok(_) => Ok(reply),
            Err(e) => Err(format!("receive failed: {e}")),
        }
    }
}

// ---------------------------------------------------------------------
// Driving the stream
// ---------------------------------------------------------------------

/// Variant numbers of the pre-fill requests, far above any the stream
/// introduces.
const PREFILL_VARIANT: u32 = 1_000_000;

/// Leaves the daemon's device LRU full of warm devices, as after long
/// service: each of [`DEVICE_CAPACITY`] variants the stream never uses
/// is `run` twice, and the second run resets (fills) its device. The
/// daemon's peak RSS then reflects a full LRU on every seed, instead of
/// however many warm devices a short stream happens to hold at once.
/// The frames carry no id, so the replay skips them; their devices are
/// older than every stream device and never used again, so the LRU
/// keeps the same stream devices with or without them.
pub fn prefill(socket: &Path, examples: &[Example]) -> Result<(), String> {
    let example = examples.iter().position(|e| e.name == "saxpy").unwrap_or(0) as u8;
    let config = ORACLE_CONFIGS
        .iter()
        .position(|c| *c == BuildConfig::LlvmDev)
        .expect("the oracle matrix holds LLVM Dev") as u8;
    let run = OPS
        .iter()
        .position(|(op, _)| *op == "run")
        .expect("run is an op") as u8;
    let mut conn = Connection::open(socket)?;
    for v in 0..DEVICE_CAPACITY as u32 {
        let key = ReqKey {
            op: run,
            example,
            config,
            variant: PREFILL_VARIANT + v,
        };
        for _ in 0..2 {
            let env = Envelope::parse(&conn.request(&request_line(None, &key, examples))?)?;
            if env.exit_code != 0 || env.error.is_some() {
                return Err(format!("pre-fill request failed: {:?}", env.error));
            }
        }
    }
    Ok(())
}

/// One answered request.
pub struct Sample {
    pub idx: usize,
    pub start: Instant,
    pub rtt: Duration,
    pub reply: Result<String, String>,
}

/// Sends one pass of the stream over one closed-loop connection, each
/// request after the previous reply; stops early only if the
/// connection breaks. Each round trip is timed on `clock`, which
/// probes host speed between requests.
pub fn drive(
    socket: &Path,
    keys: &[ReqKey],
    examples: &[Example],
    clock: &mut Clock,
) -> Result<Vec<Sample>, String> {
    let mut conn = Connection::open(socket)?;
    let mut samples = Vec::new();
    for (idx, key) in keys.iter().enumerate() {
        let line = request_line(Some(idx as u64 + 1), key, examples);
        let stamp = clock.start();
        let start = stamp.wall;
        let reply = conn.request(&line);
        let rtt = clock.stop(stamp);
        let broken = reply.is_err();
        samples.push(Sample {
            idx,
            start,
            rtt,
            reply,
        });
        if broken {
            break;
        }
    }
    Ok(samples)
}

/// Per-tier (hits, misses) of one envelope's `cache` member, in the
/// order frontend, optimized, device, graphs.
pub type CacheTrace = [(u64, u64); 4];
pub const TIERS: [&str; 4] = ["frontend", "optimized", "device", "graphs"];

/// The parts of a response envelope the benchmark checks.
pub struct Envelope {
    pub exit_code: u64,
    pub result: Option<String>,
    pub error: Option<String>,
    pub cache: CacheTrace,
    value: Value,
}

impl Envelope {
    pub fn parse(reply: &str) -> Result<Envelope, String> {
        let v = omp_json::parse(reply.trim_end()).map_err(|e| format!("bad envelope: {e}"))?;
        let exit_code = v
            .get("exit_code")
            .and_then(Value::as_u64)
            .ok_or("envelope lacks exit_code")?;
        let mut cache = [(0, 0); 4];
        for (i, tier) in TIERS.iter().enumerate() {
            let t = v.get("cache").and_then(|c| c.get(tier));
            let n = |k| {
                t.and_then(|t| t.get(k))
                    .and_then(Value::as_u64)
                    .unwrap_or(0)
            };
            cache[i] = (n("hits"), n("misses"));
        }
        Ok(Envelope {
            exit_code,
            result: v
                .get("result")
                .map(|_| raw_result(reply, v.get("error").is_some())),
            error: v
                .get("error")
                .and_then(|e| e.get("message"))
                .and_then(Value::as_str)
                .map(str::to_string),
            cache,
            value: v,
        })
    }

    /// Warm: no cache tier missed.
    pub fn is_warm(&self) -> bool {
        self.cache.iter().all(|(_, misses)| *misses == 0)
    }

    /// `(configuration, model cycles)` of every launch the result
    /// reports.
    pub fn launch_cycles(&self) -> Vec<(String, u64)> {
        let Some(result) = self.value.get("result") else {
            return Vec::new();
        };
        let launch = |v: &Value| {
            let cycles = v.get("stats").and_then(|s| s.get("cycles"))?.as_u64()?;
            Some((v.get("config")?.as_str()?.to_string(), cycles))
        };
        match result.get("configs").and_then(Value::as_array) {
            Some(configs) => configs.iter().filter_map(launch).collect(),
            None => launch(result).into_iter().collect(),
        }
    }

    /// Simulated instructions of every launch the result reports.
    pub fn launch_insts(&self) -> u64 {
        let Some(result) = self.value.get("result") else {
            return 0;
        };
        let insts = |v: &Value| v.get("stats").and_then(|s| s.get("instructions"))?.as_u64();
        match result.get("configs").and_then(Value::as_array) {
            Some(configs) => configs.iter().filter_map(insts).sum(),
            None => insts(result).unwrap_or(0),
        }
    }
}

/// The `result` member's bytes exactly as the daemon wrote them. The
/// envelope's members come in a fixed order, with `result` after
/// `cache` and only `error` after it.
fn raw_result(reply: &str, has_error: bool) -> String {
    let body = reply.trim_end();
    let start = body
        .find(",\"result\":")
        .map_or(0, |i| i + ",\"result\":".len());
    let end = if has_error {
        body.rfind(",\"error\":{").unwrap_or(body.len())
    } else {
        body.len().saturating_sub(1)
    };
    body.get(start..end).unwrap_or_default().to_string()
}

/// One access-log record.
pub struct Access {
    pub id: u64,
    pub queue_us: u64,
    pub service_us: u64,
}

pub fn read_access_log(path: &Path) -> Result<Vec<Access>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut out = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = omp_json::parse(line).map_err(|e| format!("bad access-log line: {e}"))?;
        let Some(id) = v.get("id").and_then(Value::as_u64) else {
            continue; // control requests (ping, stats) carry no id
        };
        let n = |k| v.get(k).and_then(Value::as_u64).unwrap_or(0);
        out.push(Access {
            id,
            queue_us: n("queue_micros"),
            service_us: n("service_micros"),
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Traced attribution: replay each request's cache outcome in process
// ---------------------------------------------------------------------

struct OptimizedEntry {
    module: Arc<Module>,
    ir_hash: u64,
}

/// Mirrors the daemon's four cache tiers with the same keys and the
/// same LRU policy, so replaying requests in the daemon's execution
/// order reproduces its hit/miss decisions; each miss or hit then runs
/// the layer call the daemon ran, timed.
pub struct Replay<'e> {
    examples: &'e [Example],
    jobs: u32,
    frontend: HashMap<(u8, u32, String), Arc<Module>>,
    optimized: HashMap<(u8, u32, u8), OptimizedEntry>,
    devices: Vec<(u64, OwnedDevice)>,
    graphs: HashMap<u64, CapturedGraph>,
    pub counts: Counts,
}

/// Layers a replayed request is split into; the rest of the daemon's
/// service time is `serve.other_us`.
pub const REPLAY_LAYERS: [&str; 11] = [
    "frontend",
    "optimize",
    "gpusim.device_new",
    "gpusim.reset",
    "gpusim.prepare",
    "gpusim.launch",
    "gpusim.check",
    "gpusim.graph_capture",
    "gpusim.graph_replay",
    "gpusim.profile",
    "gpusim.sanitize",
];

impl<'e> Replay<'e> {
    pub fn new(examples: &'e [Example], jobs: u32) -> Replay<'e> {
        Replay {
            examples,
            jobs,
            frontend: HashMap::new(),
            optimized: HashMap::new(),
            devices: Vec::new(),
            graphs: HashMap::new(),
            counts: Counts::default(),
        }
    }

    /// Replays one request; returns its cache trace as the mirror saw it.
    pub fn request(&mut self, key: &ReqKey, tr: &mut Tracer) -> Result<CacheTrace, String> {
        let mut trace: CacheTrace = [(0, 0); 4];
        let configs: Vec<u8> = if key.op_name() == "verify" {
            (0..ORACLE_CONFIGS.len() as u8).collect()
        } else {
            vec![key.config]
        };
        let source = source_of(key, self.examples);
        for config in configs {
            let k = ReqKey { config, ..*key };
            self.one_config(&k, &source, &mut trace, tr)?;
        }
        Ok(trace)
    }

    fn one_config(
        &mut self,
        key: &ReqKey,
        source: &str,
        trace: &mut CacheTrace,
        tr: &mut Tracer,
    ) -> Result<(), String> {
        let config = key.config();
        let fe = config.frontend_options("bench");
        let fe_key = (
            key.example,
            key.variant,
            format!("{:?}/{}", fe.globalization, fe.cuda_mode),
        );
        let frontend = match self.frontend.get(&fe_key) {
            Some(m) => {
                trace[0].0 += 1;
                Arc::clone(m)
            }
            None => {
                trace[0].1 += 1;
                let m = tr
                    .time("frontend", || pipeline::compile_frontend(source, config))
                    .map_err(|e| e.to_string())?;
                let m = Arc::new(m);
                self.frontend.insert(fe_key, Arc::clone(&m));
                m
            }
        };
        let opt_key = (key.example, key.variant, key.config);
        let (module, ir_hash) = match self.optimized.get(&opt_key) {
            Some(e) => {
                trace[1].0 += 1;
                (Arc::clone(&e.module), e.ir_hash)
            }
            None => {
                trace[1].1 += 1;
                let (m, report) = tr
                    .time("optimize", || {
                        pipeline::optimize((*frontend).clone(), config)
                    })
                    .map_err(|e| e.to_string())?;
                for t in report.iter().flat_map(|r| &r.pass_timings) {
                    let layer = if t.pass == "openmp-opt" {
                        "openmp-opt".to_string()
                    } else {
                        format!("passes.{}", t.pass)
                    };
                    tr.add(&layer, t.wall_nanos, u64::from(t.runs));
                }
                if let Some(r) = &report {
                    self.counts.add_pass_stats(&r.pass_stats());
                }
                self.counts.insts_after += live_insts(&m);
                let ir_hash = omp_json::fnv1a(omp_ir::printer::print_module(&m).as_bytes());
                let module = Arc::new(m);
                self.optimized.insert(
                    opt_key,
                    OptimizedEntry {
                        module: Arc::clone(&module),
                        ir_hash,
                    },
                );
                (module, ir_hash)
            }
        };
        let op = key.op_name();
        if op == "compile" {
            return Ok(());
        }
        let idx = match self.devices.iter().position(|(k, _)| *k == ir_hash) {
            Some(pos) => {
                trace[2].0 += 1;
                let mut pair = self.devices.remove(pos);
                pair.1.with(|d| tr.time("gpusim.reset", || d.reset()));
                self.devices.push(pair);
                self.devices.len() - 1
            }
            None => {
                trace[2].1 += 1;
                let dev = tr
                    .time("gpusim.device_new", || {
                        OwnedDevice::new(Arc::clone(&module), Default::default())
                    })
                    .map_err(|e| e.to_string())?;
                if self.devices.len() >= DEVICE_CAPACITY {
                    self.devices.remove(0);
                }
                self.devices.push((ir_hash, dev));
                self.devices.len() - 1
            }
        };
        let examples = self.examples;
        let spec = &examples[key.example as usize].spec;
        let dims = omp_gpu::LaunchDims {
            teams: spec.teams,
            threads: spec.threads,
        };
        let multi_kernel = module
            .kernels
            .iter()
            .filter(|k| k.source_name == spec.kernel)
            .count()
            > 1;
        let jobs = self.jobs;
        let graphs = &mut self.graphs;
        let counts = &mut self.counts;
        self.devices[idx].1.with(|d| -> Result<(), String> {
            d.set_jobs(jobs);
            d.set_profile(if op == "profile" {
                ProfileMode::On
            } else {
                ProfileMode::Off
            });
            d.set_sanitize(if op == "sanitize" {
                SanitizeMode::On
            } else {
                SanitizeMode::Off
            });
            d.set_watchdog(Some(Duration::from_secs(60)));
            let (args, buffers) =
                tr.time("gpusim.prepare", || oracle::materialize_args(d, &spec.args))?;
            let stats = match op {
                "run" if multi_kernel => {
                    if graphs
                        .get(&ir_hash)
                        .is_some_and(|g| g.args() == args.as_slice())
                    {
                        trace[3].0 += 1;
                    } else {
                        trace[3].1 += 1;
                        let g = tr
                            .time("gpusim.graph_capture", || {
                                d.capture_graph(&spec.kernel, &args, dims)
                            })
                            .map_err(|e| e.to_string())?;
                        graphs.insert(ir_hash, g);
                    }
                    let graph = &graphs[&ir_hash];
                    tr.time("gpusim.graph_replay", || d.replay_graph(graph))
                }
                "run" => tr.time("gpusim.launch", || d.launch(&spec.kernel, &args, dims)),
                "profile" => tr
                    .time("gpusim.profile", || {
                        d.launch_plan_profiled(&spec.kernel, &args, dims)
                    })
                    .map(|(s, _)| s),
                "sanitize" => tr
                    .time("gpusim.sanitize", || {
                        d.launch_plan_checked(&spec.kernel, &args, dims)
                    })
                    .map(|(s, _)| s),
                _ => tr.time("gpusim.launch", || d.launch_plan(&spec.kernel, &args, dims)),
            }
            .map_err(|e| e.to_string())?;
            if op == "verify" {
                tr.time("gpusim.check", || {
                    for (addr, len, is_f64) in &buffers {
                        if *is_f64 {
                            d.read_f64(*addr, *len).map_err(|e| e.to_string())?;
                        } else {
                            d.read_i64(*addr, *len).map_err(|e| e.to_string())?;
                        }
                    }
                    Ok::<(), String>(())
                })?;
            }
            counts.add_launch(&stats.snapshot());
            Ok(())
        })
    }
}

/// Over the first [`PASS_REQUESTS`] replies: the geometric mean of the
/// model cycles of each distinct (example, configuration) launch, and
/// the simulated instructions of every launch. A launch's cycles depend
/// only on its program and configuration (a variant changes neither
/// kernel), so counting each once keeps the figure independent of how
/// often the stream repeats it.
pub fn deterministic_prefix(keys: &[ReqKey], envelopes: &[(usize, Envelope)]) -> (f64, u64) {
    let mut cycles: HashMap<(u8, String), u64> = HashMap::new();
    let mut insts = 0;
    for (idx, e) in envelopes.iter().filter(|(idx, _)| *idx < PASS_REQUESTS) {
        for (config, c) in e.launch_cycles() {
            cycles.entry((keys[*idx].example, config)).or_insert(c);
        }
        insts += e.launch_insts();
    }
    let values: Vec<u64> = cycles.into_values().collect();
    (geomean(&values), insts)
}

#[cfg(test)]
mod tests {
    use super::raw_result;

    #[test]
    fn raw_result_keeps_the_daemons_bytes() {
        let ok = r#"{"schema":"s","id":1,"op":"run","ok":true,"exit_code":0,"cache":{},"result":{"a":1.50,"b":"x"}}"#;
        assert_eq!(raw_result(ok, false), r#"{"a":1.50,"b":"x"}"#);
        let err =
            r#"{"ok":false,"exit_code":5,"cache":{},"result":{"c":[]},"error":{"message":"m"}}"#;
        assert_eq!(raw_result(err, true), r#"{"c":[]}"#);
    }
}
