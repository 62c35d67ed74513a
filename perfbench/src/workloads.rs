//! Measuring one run of a named workload.

use crate::hostspeed::{cpu_ms, Clock, Probe};
use crate::inproc::{self, Counts, Inputs, Kind, APPLIED_KINDS, TOP_LAYERS};
use crate::report::Report;
use crate::serve_mix::{self, Connection, Daemon, Envelope, Replay, ReqKey, REPLAY_LAYERS};
use crate::stats::{geomean_ms, median, percentile};
use crate::trace::Tracer;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;
/// The same for `serve-mix`, whose set-up takes milliseconds.
pub const SERVE_SETUP_REPEATS: usize = 15;

/// How often `serve-mix` probes host speed between requests.
const PROBE_INTERVAL: Duration = Duration::from_millis(200);

pub const WORKLOADS: [&str; 4] = ["verify-small", "verify-bench", "inspect-bench", "serve-mix"];

pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Repository root: the examples are read from here.
    pub root: PathBuf,
    /// The `ompgpu` binary `serve-mix` starts.
    pub ompgpu: PathBuf,
    /// Scratch directory for sockets, access logs and traces.
    pub out_dir: PathBuf,
    pub jobs: u32,
}

/// Runs one workload. The tracer is returned for traced runs.
pub fn run(o: &Opts) -> Result<(Report, Option<Tracer>), String> {
    match o.workload.as_str() {
        "verify-small" => measure_inproc(Kind::VerifySmall, o),
        "verify-bench" => measure_inproc(Kind::VerifyBench, o),
        "inspect-bench" => measure_inproc(Kind::InspectBench, o),
        "serve-mix" => measure_serve(o),
        w => Err(format!(
            "unknown workload {w:?} (known: {})",
            WORKLOADS.join(", ")
        )),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Checks one op against the run's first op: the counts are
/// deterministic, so any difference is a failure.
fn check_op(rep: &mut Report, out: &inproc::OpOutcome, reference: &mut Option<Counts>) {
    let mut failures = out.failures.clone();
    match reference {
        Some(r) if r.comparable() != out.counts.comparable() => failures.push(format!(
            "op counts differ from the first op's: {:?} vs {:?}",
            (out.counts.launches, out.counts.sim_insts),
            (r.launches, r.sim_insts)
        )),
        Some(_) => {}
        None => *reference = Some(out.counts.clone()),
    }
    rep.op(&failures);
}

fn measure_inproc(kind: Kind, o: &Opts) -> Result<(Report, Option<Tracer>), String> {
    let mut rep = Report::default();
    let mut reference: Option<Counts> = None;
    // Set-up: generate the inputs, then run the first op, which pays
    // every one-time cost. Repeated; the first ops count as attempted.
    let mut setups = Clock::new(Probe::new(o.jobs), Duration::ZERO, None);
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = setups.start();
        let inp = Inputs::new(kind, &o.root, o.seed, o.jobs)?;
        let out = inproc::run_op(&inp);
        setups.stop(t0);
        check_op(&mut rep, &out, &mut reference);
        inputs = Some(inp);
    }
    setups.finish();
    let inp = inputs.expect("set-up ran at least once");
    let reference = reference.expect("set-up ran at least one op");
    rep.notes.push(("order".to_string(), inp.order().join(",")));
    let limit = Duration::from_secs_f64(o.seconds);
    let start = Instant::now();
    if !o.trace {
        let mut clock = Clock::new(Probe::new(o.jobs), Duration::ZERO, None);
        let mut reference = Some(reference.clone());
        while start.elapsed() < limit || clock.cpu.is_empty() {
            let t = clock.start();
            let out = inproc::run_op(&inp);
            clock.stop(t);
            check_op(&mut rep, &out, &mut reference);
        }
        clock.finish();
        let costs = &clock.scaled;
        let n = costs.len();
        rep.put("ops_per_s", clock.ops_per_s(), n);
        rep.put("op_geomean_ms", geomean_ms(costs), n);
        put_tail(&mut rep, costs);
        rep.notes.extend(clock.notes());
        // No cache tier sits in front of an in-process op, so there is
        // no warm/cold split: both read the op median. The one-time
        // costs of a first op are in `setup_s`.
        let p50 = median(costs);
        rep.put("warm_p50_ms", p50, n);
        rep.put("cold_p50_ms", p50, n);
        put_common(
            &mut rep,
            reference.as_ref().expect("reference").cycles_geomean(),
            &setups.scaled,
        );
        rep.put("peak_rss_mb", crate::peak_rss_mb("/proc/self/status")?, 1);
        return Ok((rep, None));
    }
    // Traced: alternate plain and traced ops; the plain ones give the
    // tracing overhead, the traced ones the layer breakdown.
    let mut tr = Tracer::new(start);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut traced_counts = Counts::default();
    let mut check = Some(reference.clone());
    while start.elapsed() < limit || plain.is_empty() || traced.is_empty() {
        if plain.len() <= traced.len() {
            let t = Instant::now();
            let out = inproc::run_op(&inp);
            plain.push(ms(t.elapsed()));
            check_op(&mut rep, &out, &mut check);
        } else {
            let name = format!("{} op {}", o.workload, traced.len());
            let (out, dur) = tr.op(&name, 0, |tr| inproc::run_op_traced(&inp, tr));
            traced.push(ms(dur));
            let mut failures = out.failures.clone();
            if out.counts.comparable() != reference.comparable() {
                failures.push(format!(
                    "traced op ran different work: {} launches, {} insts vs {} and {} untraced",
                    out.counts.launches,
                    out.counts.sim_insts,
                    reference.launches,
                    reference.sim_insts
                ));
            }
            rep.op(&failures);
            traced_counts = out.counts;
        }
    }
    let n = traced.len() as f64;
    let per_op_us = |nanos: u64| nanos as f64 / n / 1e3;
    let layer_sum: u64 = TOP_LAYERS.iter().map(|l| tr.total(l).nanos).sum();
    let wall_us = traced.iter().sum::<f64>() * 1e3 / n;
    put_layers(&mut rep, &tr, n, &traced_counts, 1.0, traced.len());
    rep.put(
        "oracle.other_us",
        wall_us - per_op_us(layer_sum),
        traced.len(),
    );
    rep.put(
        "trace.coverage",
        per_op_us(layer_sum) / wall_us,
        traced.len(),
    );
    rep.put(
        "trace.overhead_ratio",
        median(&traced) / median(&plain),
        traced.len().min(plain.len()),
    );
    rep.put(
        "openmp-opt.dev_vs_cuda_cycles",
        inproc::dev_vs_cuda_cycles()?,
        1,
    );
    Ok((rep, Some(tr)))
}

/// `op_p99_ms`: the 99th percentile when at least ten samples lie
/// beyond it, else the highest percentile that has ten samples beyond
/// it (a run of long ops has too few samples for a stable p99).
fn put_tail(rep: &mut Report, samples: &[f64]) {
    let n = samples.len();
    let p = if n >= 1000 {
        99.0
    } else {
        (100.0 * n.saturating_sub(10) as f64 / n.max(1) as f64).max(50.0)
    };
    rep.put("op_p99_ms", percentile(samples, p), n);
    rep.notes
        .push(("op_p99_ms_percentile".to_string(), format!("{p:.1}")));
}

/// `ok_share`, `sim_cycles_geomean` and `setup_s` (set-up costs in
/// reference milliseconds).
fn put_common(rep: &mut Report, cycles_geomean: f64, setups: &[f64]) {
    let ok = 1.0 - rep.failed as f64 / rep.attempted.max(1) as f64;
    rep.put("ok_share", ok, rep.attempted as usize);
    rep.put("sim_cycles_geomean", cycles_geomean, 1);
    rep.put("setup_s", median(setups) / 1e3, setups.len());
}

/// Layer metrics shared by every traced workload, per op over `n` ops.
/// `counts` are totals over `counts_n` ops.
fn put_layers(
    rep: &mut Report,
    tr: &Tracer,
    n: f64,
    counts: &Counts,
    counts_n: f64,
    samples: usize,
) {
    let us = |layer: &str| tr.total(layer).nanos as f64 / n / 1e3;
    rep.put("frontend.us", us("frontend"), samples);
    rep.put(
        "frontend.calls",
        tr.total("frontend").calls as f64 / n,
        samples,
    );
    for p in ["early-inline", "late-inline", "cleanup", "gvn", "licm"] {
        rep.put(
            &format!("passes.{p}.us"),
            us(&format!("passes.{p}")),
            samples,
        );
    }
    rep.put("openmp-opt.us", us("openmp-opt"), samples);
    let pass_us = (tr.total_prefix("passes.") + tr.total("openmp-opt").nanos) as f64 / n / 1e3;
    rep.put("optimize.us", us("optimize"), samples);
    rep.put("optimize.other_us", us("optimize") - pass_us, samples);
    for layer in [
        "device_new",
        "prepare",
        "launch",
        "check",
        "reset",
        "graph_capture",
        "graph_replay",
        "profile",
        "sanitize",
    ] {
        let name = format!("gpusim.{layer}");
        rep.put(&format!("{name}.us"), us(&name), samples);
    }
    // Simulated instructions per host microsecond = millions per second.
    let rate = |insts: u64, layers: &[&str]| {
        let t: f64 = layers.iter().map(|l| us(l)).sum();
        if t > 0.0 {
            insts as f64 / counts_n / t
        } else {
            0.0
        }
    };
    rep.put(
        "gpusim.minst_per_s.tier1",
        rate(
            counts.tier1_insts,
            &["gpusim.launch", "gpusim.graph_replay"],
        ),
        samples,
    );
    rep.put(
        "gpusim.minst_per_s.tier0",
        rate(counts.tier0_insts, &["gpusim.profile", "gpusim.sanitize"]),
        samples,
    );
    let steps = counts.fused_steps + counts.plain_steps;
    rep.put(
        "gpusim.compiled_share",
        if steps > 0 {
            counts.fused_steps as f64 / steps as f64
        } else {
            0.0
        },
        samples,
    );
    rep.put(
        "gpusim.sim_insts",
        counts.sim_insts as f64 / counts_n,
        samples,
    );
    rep.put(
        "passes.insts_after",
        counts.insts_after as f64 / counts_n,
        samples,
    );
    for (i, kind) in APPLIED_KINDS.iter().enumerate() {
        rep.put(
            &format!("openmp-opt.applied.{kind}"),
            counts.applied[i] as f64 / counts_n,
            samples,
        );
    }
}

fn measure_serve(o: &Opts) -> Result<(Report, Option<Tracer>), String> {
    let mut rep = Report::default();
    let examples = crate::read_examples(&o.root.join("examples/omp"))?;
    let keys = serve_mix::stream(o.seed, serve_mix::PASS_REQUESTS, examples.len());
    // Set-up: start the daemon until it answers a ping. Repeated; the
    // last daemon serves the run.
    let mut setups = Clock::new(Probe::with_service(o.jobs, true), Duration::ZERO, None);
    let mut daemon = None;
    for k in 0..SERVE_SETUP_REPEATS {
        let t0 = setups.start();
        let d = Daemon::start(&o.ompgpu, &o.out_dir, &k.to_string())?;
        setups.stop_plus(t0, cpu_ms(Some(d.pid())));
        if k + 1 < SERVE_SETUP_REPEATS {
            let log = d.access_log.clone();
            d.stop()?;
            let _ = std::fs::remove_file(log);
        } else {
            daemon = Some(d);
        }
    }
    setups.finish();
    let mut daemon = daemon;
    // Whole passes, each to a fresh, pre-filled daemon: every pass sees
    // the same cache outcomes, so the mix of warm and cold requests does
    // not depend on how many requests fit in the time limit.
    //
    // One closed-loop client. With two, the requests that queued behind
    // the other client's request were half of all round trips, so every
    // latency median sat on that split and moved by 15-30% between
    // identical runs.
    //
    // Requests take about a millisecond, so probes go between requests
    // every PROBE_INTERVAL rather than around each one.
    let limit = Duration::from_secs_f64(o.seconds);
    let start = Instant::now();
    let mut clock = Clock::new(Probe::with_service(o.jobs, true), PROBE_INTERVAL, None);
    let mut samples = Vec::new();
    // The first pass's stats reply and access log, for the breakdown.
    let mut first_pass = None;
    let mut rss: f64 = 0.0;
    for pass in 1.. {
        let d = match daemon.take() {
            Some(d) => d,
            None => Daemon::start(&o.ompgpu, &o.out_dir, &format!("pass{pass}"))?,
        };
        serve_mix::prefill(&d.socket, &examples)?;
        clock.set_server(Some(d.pid()));
        let sent = serve_mix::drive(&d.socket, &keys, &examples, &mut clock)?;
        clock.set_server(None);
        let whole = sent.len() == keys.len();
        samples.extend(sent);
        rss = rss.max(d.peak_rss_mb()?);
        let log = d.access_log.clone();
        if first_pass.is_none() {
            let stats = Connection::open(&d.socket)?.request("{\"op\":\"stats\"}")?;
            first_pass = Some((stats, log));
            d.stop()?;
        } else {
            d.stop()?;
            let _ = std::fs::remove_file(log);
        }
        if !whole || start.elapsed() >= limit {
            break;
        }
    }
    clock.finish();
    let (stats, access_log) = first_pass.expect("one pass ran");

    // Output checks: no refusal, the expected exit code, and every
    // repeat byte-identical to the first answer to the same request.
    let mut first: HashMap<ReqKey, (u64, Option<String>)> = HashMap::new();
    let mut envelopes: Vec<(usize, Envelope)> = Vec::new();
    let (mut warm, mut cold, mut rtts) = (Vec::new(), Vec::new(), Vec::new());
    for (i, (s, &scaled)) in samples.iter().zip(&clock.scaled).enumerate() {
        let key = keys[s.idx];
        let env = match s
            .reply
            .as_deref()
            .map_err(String::clone)
            .and_then(Envelope::parse)
        {
            Ok(e) => e,
            Err(e) => {
                rep.op_failed(format!("request {}: {e}", s.idx + 1));
                continue;
            }
        };
        rtts.push(scaled);
        let mut failures = Vec::new();
        if let Some(msg) = &env.error {
            failures.push(format!("request {} refused: {msg}", s.idx + 1));
        }
        let expected = serve_mix::expected_exit(&key, &examples);
        if env.exit_code != expected {
            failures.push(format!(
                "request {} ({}) exit {} != expected {expected}",
                s.idx + 1,
                key.op_name(),
                env.exit_code
            ));
        }
        let answer = (env.exit_code, env.result.clone());
        match first.get(&key) {
            Some(reference) if *reference != answer => failures.push(format!(
                "request {} ({}) differs from the first answer to the same request",
                s.idx + 1,
                key.op_name()
            )),
            Some(_) => {}
            None => {
                first.insert(key, answer);
            }
        }
        rep.op(&failures);
        // A warm compile is a hash lookup that never reaches the device
        // tier; with those in, the warm median was a ~0.1 ms socket
        // round trip that moved by half between sets of runs.
        if !env.is_warm() {
            cold.push(scaled);
        } else if key.op_name() != "compile" {
            warm.push(scaled);
        }
        // Deterministic figures and the breakdown use the first pass.
        if i < keys.len() {
            envelopes.push((s.idx, env));
        }
    }
    let (cycles_geomean, prefix_insts) = serve_mix::deterministic_prefix(&keys, &envelopes);
    rep.notes
        .push(("distinct_requests".to_string(), first.len().to_string()));
    if !o.trace {
        let n = rtts.len();
        rep.put("ops_per_s", clock.ops_per_s(), clock.scaled.len());
        rep.put("op_geomean_ms", geomean_ms(&rtts), n);
        rep.put("warm_p50_ms", median(&warm), warm.len());
        rep.put("cold_p50_ms", median(&cold), cold.len());
        put_tail(&mut rep, &rtts);
        rep.notes.extend(clock.notes());
        put_common(&mut rep, cycles_geomean, &setups.scaled);
        rep.put("peak_rss_mb", rss, 1);
        return Ok((rep, None));
    }
    let tr = attribute_serve(
        o,
        &mut rep,
        &keys,
        &examples,
        &samples[..samples.len().min(keys.len())],
        &envelopes,
        &access_log,
        &stats,
    )?;
    let n = serve_mix::PASS_REQUESTS as f64;
    rep.put(
        "gpusim.sim_insts",
        prefix_insts as f64 / n,
        serve_mix::PASS_REQUESTS,
    );
    rep.put(
        "openmp-opt.dev_vs_cuda_cycles",
        inproc::dev_vs_cuda_cycles()?,
        1,
    );
    Ok((rep, Some(tr)))
}

/// The traced half of `serve-mix`: client spans, the access log's
/// queue and service times, and the in-process replay that splits
/// service time into layers.
#[allow(clippy::too_many_arguments)]
fn attribute_serve(
    o: &Opts,
    rep: &mut Report,
    keys: &[ReqKey],
    examples: &[crate::Example],
    samples: &[serve_mix::Sample],
    envelopes: &[(usize, Envelope)],
    access_log: &std::path::Path,
    stats: &str,
) -> Result<Tracer, String> {
    let epoch = samples.first().map_or_else(Instant::now, |s| s.start);
    let mut tr = Tracer::new(epoch);
    let access = serve_mix::read_access_log(access_log)?;
    let by_id: HashMap<u64, &serve_mix::Access> = access.iter().map(|a| (a.id, a)).collect();
    let n = samples.len();
    // Client spans on every request. What recording costs is compared
    // on the same requests: every request's round trip with and without
    // its recording time. (Alternate requests follow one fixed pattern
    // and differ in mix, so they cannot serve as each other's baseline.)
    let (mut rec, mut unrec) = (Vec::new(), Vec::new());
    let (mut queue, mut transport) = (Vec::new(), Vec::new());
    let mut service: HashMap<&str, Vec<f64>> = HashMap::new();
    for s in samples {
        let rtt_us = s.rtt.as_secs_f64() * 1e6;
        let Some(a) = by_id.get(&(s.idx as u64 + 1)) else {
            rep.fail_message(&format!(
                "request {} missing from the access log",
                s.idx + 1
            ));
            continue;
        };
        let t_us = rtt_us - (a.queue_us + a.service_us) as f64;
        queue.push(a.queue_us as f64);
        transport.push(t_us);
        let op = keys[s.idx].op_name();
        service.entry(op).or_default().push(a.service_us as f64);
        let t = Instant::now();
        let id = tr.record(&format!("request {op}"), "op", 0, 0, s.start, s.rtt);
        // The daemon's clock is not ours: place queue and service
        // in the middle of the round trip, transport split around.
        let lead = Duration::from_micros((t_us.max(0.0) / 2.0) as u64);
        let q = Duration::from_micros(a.queue_us);
        tr.record("serve.queue", "layer", 0, id, s.start + lead, q);
        tr.record(
            "serve.service",
            "layer",
            0,
            id,
            s.start + lead + q,
            Duration::from_micros(a.service_us),
        );
        rec.push((s.rtt + t.elapsed()).as_secs_f64() * 1e6);
        unrec.push(rtt_us);
    }
    let rtts: Vec<f64> = samples.iter().map(|s| s.rtt.as_secs_f64() * 1e6).collect();
    rep.put("serve.rtt_us.p50", median(&rtts), n);
    rep.put("serve.rtt_us.p99", percentile(&rtts, 99.0), n);
    rep.put("serve.queue_us.p50", median(&queue), queue.len());
    rep.put("serve.queue_us.p99", percentile(&queue, 99.0), queue.len());
    rep.put("serve.transport_us", median(&transport), transport.len());
    for (op, _) in serve_mix::OPS {
        let v = service.get(op).cloned().unwrap_or_default();
        rep.put(&format!("serve.service_us.{op}"), median(&v), v.len());
    }
    rep.put(
        "trace.overhead_ratio",
        median(&rec) / median(&unrec),
        rec.len().min(unrec.len()),
    );

    // Replay in the daemon's execution order (the access log's).
    let cache_of: HashMap<usize, &Envelope> = envelopes.iter().map(|(i, e)| (*i, e)).collect();
    let rtt_of: HashMap<usize, f64> = samples
        .iter()
        .map(|s| (s.idx, s.rtt.as_secs_f64() * 1e6))
        .collect();
    let (mut rtt_sum, mut service_sum, mut outside_sum) = (0.0, 0.0, 0.0);
    let mut replayed = 0usize;
    let mut replay = Replay::new(examples, o.jobs);
    let mut mismatches = 0usize;
    let replay_track = 1000;
    // The first PASS_REQUESTS the daemon executed: the same amount of
    // replay on every run, whatever its length.
    let access = &access[..access.len().min(serve_mix::PASS_REQUESTS)];
    for a in access {
        let idx = (a.id - 1) as usize;
        let Some(env) = cache_of.get(&idx) else {
            continue;
        };
        let key = keys[idx];
        let (trace, _) = tr.op(&format!("replay {}", key.op_name()), replay_track, |tr| {
            replay.request(&key, tr)
        });
        if trace? != env.cache {
            mismatches += 1;
        }
        replayed += 1;
        let rtt = rtt_of[&idx];
        rtt_sum += rtt;
        service_sum += a.service_us as f64;
        // Queue wait and transport: the round trip outside the service.
        outside_sum += rtt - a.service_us as f64;
    }
    if mismatches > 0 {
        rep.fail_message(&format!(
            "{mismatches} replayed requests saw other cache outcomes than the daemon reported"
        ));
    }
    let n_replayed = replayed.max(1) as f64;
    let attributed: u64 = REPLAY_LAYERS.iter().map(|l| tr.total(l).nanos).sum();
    let attributed_us = attributed as f64 / 1e3;
    put_layers(rep, &tr, n_replayed, &replay.counts, n_replayed, replayed);
    rep.put(
        "serve.other_us",
        (service_sum - attributed_us) / n_replayed,
        replayed,
    );
    rep.put(
        "trace.coverage",
        (outside_sum + attributed_us) / rtt_sum,
        replayed,
    );

    let v = omp_json::parse(stats.trim_end()).map_err(|e| format!("bad stats reply: {e}"))?;
    let r = v.get("result").ok_or("stats reply lacks a result")?;
    let num = |v: Option<&omp_json::Value>| v.and_then(omp_json::Value::as_u64).unwrap_or(0) as f64;
    for tier in serve_mix::TIERS {
        let t = r.get("cache").and_then(|c| c.get(tier));
        let hits = num(t.and_then(|t| t.get("hits")));
        let misses = num(t.and_then(|t| t.get("misses")));
        let ratio = if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        };
        rep.put(
            &format!("serve.cache.{tier}.hit_ratio"),
            ratio,
            (hits + misses) as usize,
        );
    }
    let batches = num(r.get("batches"));
    rep.put(
        "serve.batch_size",
        num(r.get("batched_requests")) / batches.max(1.0),
        batches as usize,
    );
    rep.put("serve.shed", num(r.get("shed")), 1);
    rep.put("serve.errors", num(r.get("errors")), 1);
    Ok(tr)
}
