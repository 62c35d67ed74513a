//! Metric catalogue, the result line and provenance.

use omp_json::JsonWriter;
use std::path::Path;

/// End-to-end metrics (tracing off), with units. `BENCHMARK.json` lists
/// the same names; a test keeps the two in step.
pub const END_TO_END: [(&str, &str); 9] = [
    ("ops_per_s", "1/s"),
    ("op_geomean_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("warm_p50_ms", "ms"),
    ("cold_p50_ms", "ms"),
    ("ok_share", "ratio"),
    ("sim_cycles_geomean", "cycles"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced run). Times are per op: one suite, sweep
/// or request. A layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("frontend.us", "us"),
    ("frontend.calls", "count"),
    ("passes.early-inline.us", "us"),
    ("passes.late-inline.us", "us"),
    ("passes.cleanup.us", "us"),
    ("passes.gvn.us", "us"),
    ("passes.licm.us", "us"),
    ("passes.insts_after", "count"),
    ("openmp-opt.us", "us"),
    ("openmp-opt.applied.spmdization", "count"),
    ("openmp-opt.applied.heap-to-stack", "count"),
    ("openmp-opt.applied.heap-to-shared", "count"),
    ("openmp-opt.applied.state-machine", "count"),
    ("openmp-opt.applied.folding", "count"),
    ("openmp-opt.dev_vs_cuda_cycles", "ratio"),
    ("optimize.us", "us"),
    ("optimize.other_us", "us"),
    ("gpusim.device_new.us", "us"),
    ("gpusim.prepare.us", "us"),
    ("gpusim.launch.us", "us"),
    ("gpusim.check.us", "us"),
    ("gpusim.reset.us", "us"),
    ("gpusim.graph_capture.us", "us"),
    ("gpusim.graph_replay.us", "us"),
    ("gpusim.profile.us", "us"),
    ("gpusim.sanitize.us", "us"),
    ("gpusim.minst_per_s.tier1", "Minst/s"),
    ("gpusim.minst_per_s.tier0", "Minst/s"),
    ("gpusim.compiled_share", "ratio"),
    ("gpusim.sim_insts", "count"),
    ("oracle.other_us", "us"),
    ("serve.rtt_us.p50", "us"),
    ("serve.rtt_us.p99", "us"),
    ("serve.queue_us.p50", "us"),
    ("serve.queue_us.p99", "us"),
    ("serve.service_us.compile", "us"),
    ("serve.service_us.run", "us"),
    ("serve.service_us.profile", "us"),
    ("serve.service_us.sanitize", "us"),
    ("serve.service_us.verify", "us"),
    ("serve.transport_us", "us"),
    ("serve.other_us", "us"),
    ("serve.cache.frontend.hit_ratio", "ratio"),
    ("serve.cache.optimized.hit_ratio", "ratio"),
    ("serve.cache.device.hit_ratio", "ratio"),
    ("serve.cache.graphs.hit_ratio", "ratio"),
    ("serve.batch_size", "count"),
    ("serve.shed", "count"),
    ("serve.errors", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Failure messages kept in the detail record (the count is exact).
const MAX_MESSAGES: usize = 20;

#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    samples: usize,
}

/// Outcome of one run: checks and metrics.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    messages: Vec<String>,
    metrics: Vec<Metric>,
    /// Extra facts for the detail record (e.g. the seeded order).
    pub notes: Vec<(String, String)>,
}

impl Report {
    /// Sets a metric measured over `samples` samples.
    pub fn put(&mut self, name: &str, value: f64, samples: usize) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            samples,
        });
    }

    /// Counts one attempted op; `failures` empty means it passed.
    pub fn op(&mut self, failures: &[String]) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            for f in failures {
                self.fail_message(f);
            }
        }
    }

    /// Counts one attempted op that failed.
    pub fn op_failed(&mut self, message: String) {
        self.op(&[message]);
    }

    /// Records a failed check that is not tied to one op (the run as a
    /// whole fails).
    pub fn fail_message(&mut self, message: &str) {
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(message.to_string());
        }
        if self.failed == 0 {
            self.failed = 1;
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn value(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    fn catalogue(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// every metric of the run's catalogue.
    pub fn result_line(&self, trace: bool) -> String {
        let mut w = JsonWriter::with_capacity(4096);
        w.begin_object();
        w.key("correct").bool(self.correct());
        w.key("attempted").u64(self.attempted.max(1));
        w.key("failed").u64(self.failed);
        w.key("metrics").begin_object();
        for (name, unit) in Report::catalogue(trace) {
            let value = self.value(name).map_or(0.0, |m| m.value);
            w.key(name).begin_object();
            w.key("value").f64(value);
            w.key("unit").string(unit);
            w.end_object();
        }
        w.end_object();
        w.end_object();
        w.finish()
    }

    /// The detail record: provenance, sample counts, failures, notes.
    pub fn detail_json(&self, provenance: &Provenance, trace: bool) -> String {
        let mut w = JsonWriter::with_capacity(4096);
        w.begin_object();
        w.key("schema").string("perfbench-detail/v1");
        w.key("provenance");
        provenance.write_json(&mut w);
        w.key("samples").begin_object();
        for (name, _) in Report::catalogue(trace) {
            w.key(name).usize(self.value(name).map_or(0, |m| m.samples));
        }
        w.end_object();
        w.key("failures").begin_array();
        for m in &self.messages {
            w.string(m);
        }
        w.end_array();
        w.key("notes").begin_object();
        for (k, v) in &self.notes {
            w.key(k).string(v);
        }
        w.end_object();
        w.end_object();
        w.finish()
    }
}

/// Where and how a result was produced.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: u32,
    pub jobs: u32,
    pub git_revision: String,
    pub git_dirty: Option<bool>,
    pub source_hash: String,
    pub rustc: String,
    /// Median time of a host-speed probe at start-up (see
    /// `hostspeed`), so runs made while the host was slow can be told
    /// apart.
    pub calibration_ms: f64,
}

impl Provenance {
    pub fn collect(
        root: &Path,
        workload: &str,
        seed: u64,
        seconds: f64,
        trace: bool,
        jobs: u32,
    ) -> Provenance {
        let git = |args: &[&str]| {
            std::process::Command::new("git")
                .args(args)
                .current_dir(root)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        };
        // Only a repository rooted at `root` describes the code measured.
        let in_git = git(&["rev-parse", "--show-toplevel"])
            .and_then(|top| std::fs::canonicalize(top).ok())
            .is_some_and(|top| std::fs::canonicalize(root).is_ok_and(|r| r == top));
        let git = |args: &[&str]| if in_git { git(args) } else { None };
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        Provenance {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            nproc: crate::nproc(),
            jobs,
            git_revision: git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "none".to_string()),
            git_dirty: git(&["status", "--porcelain"]).map(|s| !s.is_empty()),
            source_hash: source_hash(root),
            rustc,
            calibration_ms: calibration_ms(jobs),
        }
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("workload").string(&self.workload);
        w.key("seed").u64(self.seed);
        w.key("seconds").f64(self.seconds);
        w.key("trace").bool(self.trace);
        w.key("nproc").u32(self.nproc);
        w.key("jobs").u32(self.jobs);
        w.key("git_revision").string(&self.git_revision);
        w.key("git_dirty");
        match self.git_dirty {
            Some(d) => w.bool(d),
            None => w.null(),
        };
        w.key("source_hash").string(&self.source_hash);
        w.key("rustc").string(&self.rustc);
        w.key("calibration_ms").f64(self.calibration_ms);
        w.end_object();
    }
}

fn calibration_ms(jobs: u32) -> f64 {
    let mut probe = crate::hostspeed::Probe::new(jobs);
    let samples: Vec<f64> = (0..8).map(|_| probe.sample().0).collect();
    crate::stats::median(&samples[1..])
}

/// FNV-1a over the program's sources and the benchmark's own, in path
/// order: identifies the code measured even outside a git checkout.
fn source_hash(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.filter_map(|e| e.ok()) {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "c" || x == "lock")
            {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for dir in ["crates", "examples/omp", "perfbench/src"] {
        walk(&root.join(dir), &mut files);
    }
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend(f.strip_prefix(root).unwrap_or(f).to_string_lossy().bytes());
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", omp_json::fnv1a(&bytes))
}
