//! Determinism self-tests: one seed gives identical deterministic
//! counts on every run, and a different seed changes the serve stream
//! but not the verify counts.

use perfbench::inproc::{self, Inputs, Kind};
use perfbench::serve_mix::{self, Envelope, Replay, OPS};
use perfbench::trace::Tracer;
use std::path::Path;
use std::time::Instant;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository")
}

#[test]
fn serve_stream_repeats_per_seed_and_keeps_its_mix() {
    let a = serve_mix::stream(7, 2000, 9);
    assert_eq!(a, serve_mix::stream(7, 2000, 9));
    assert_ne!(a, serve_mix::stream(8, 2000, 9));
    for seed in [1, 2, 3] {
        let s = serve_mix::stream(seed, serve_mix::PASS_REQUESTS, 9);
        // Ops in exact proportion per block of nine.
        for (op, (name, weight)) in OPS.iter().enumerate() {
            let n = s[..999].iter().filter(|k| k.op as usize == op).count();
            assert_eq!(n, 111 * weight, "{name}");
        }
        // Four in five requests repeat an earlier one.
        let mut seen = std::collections::HashSet::new();
        let repeats = s.iter().filter(|k| !seen.insert(**k)).count();
        assert!((780..=800).contains(&repeats), "{repeats} repeats");
        assert!(s.iter().any(|k| k.variant > 0), "novel variants appear");
        // Every seed shares one pattern: the same op in each slot, and a
        // request repeats exactly where it repeats for seed 7.
        let first_at = |s: &[serve_mix::ReqKey]| -> Vec<usize> {
            s.iter()
                .map(|k| s.iter().position(|x| x == k).expect("k is in s"))
                .collect()
        };
        assert!(s.iter().zip(&a).all(|(x, y)| x.op == y.op));
        assert_eq!(first_at(&s), first_at(&a[..s.len()]));
    }
}

#[test]
fn serve_cache_outcomes_repeat_per_seed_and_replay_mirrors_them() {
    let examples = perfbench::read_examples(&root().join("examples/omp")).expect("examples");
    let keys = serve_mix::stream(11, 45, examples.len());
    let run = || {
        let mut session = omp_gpu::Session::default();
        keys.iter()
            .enumerate()
            .map(|(i, k)| {
                let line = serve_mix::request_line(Some(i as u64 + 1), k, &examples);
                let (reply, _) = session.handle_line(&line);
                let env = Envelope::parse(&reply).expect("envelope");
                assert_eq!(env.exit_code, serve_mix::expected_exit(k, &examples));
                (env.cache, env.result)
            })
            .collect::<Vec<_>>()
    };
    let first = run();
    assert_eq!(first, run(), "cache hit/miss counts and results repeat");
    let mut replay = Replay::new(&examples, 1);
    let mut tr = Tracer::new(Instant::now());
    for (k, (cache, _)) in keys.iter().zip(&first) {
        assert_eq!(&replay.request(k, &mut tr).expect("replay"), cache);
    }
}

#[test]
fn verify_counts_repeat_and_ignore_the_seed() {
    let counts = |seed| {
        let inp = Inputs::new(Kind::VerifySmall, root(), seed, 2).expect("inputs");
        let out = inproc::run_op(&inp);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        let traced = inproc::run_op_traced(&inp, &mut Tracer::new(Instant::now()));
        assert!(traced.failures.is_empty(), "{:?}", traced.failures);
        assert_eq!(traced.counts.comparable(), out.counts.comparable());
        (out.counts.comparable(), traced.counts.insts_after)
    };
    let a = counts(1);
    assert_eq!(a, counts(1));
    assert_eq!(a, counts(2));
    assert!(a.0.launches > 0 && a.0.applied.iter().sum::<u64>() > 0);
}

#[test]
fn benchmark_json_lists_the_metrics_the_binary_prints() {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let v = omp_json::parse(&text).expect("valid JSON");
    let names = |key: &str| -> Vec<(String, String)> {
        v.get(key)
            .and_then(omp_json::Value::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                let s = |f| {
                    m.get(f)
                        .and_then(omp_json::Value::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    };
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), owned(&perfbench::report::END_TO_END));
    assert_eq!(names("per_layer"), owned(&perfbench::report::PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, perfbench::workloads::WORKLOADS);
}
