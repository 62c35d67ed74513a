//! `perfbench --workload NAME --seed N --seconds S --trace 0|1
//!            --ompgpu PATH [--root DIR] [--out DIR]`
//!
//! Runs one workload and prints a detail record (provenance, sample
//! counts, failures) followed by the result line. Exits 1 when an
//! output check failed and 2 when the run could not be made.

use perfbench::report::Provenance;
use perfbench::workloads::{self, Opts};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut ompgpu = None;
    let mut root = PathBuf::from(".");
    let mut out_dir = PathBuf::from(".bench_out");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            "--ompgpu" => ompgpu = Some(PathBuf::from(value)),
            "--root" => root = PathBuf::from(value),
            "--out" => out_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        root,
        ompgpu: ompgpu.ok_or("--ompgpu is required")?,
        out_dir,
        jobs: perfbench::nproc(),
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", opts.out_dir.display());
        return ExitCode::from(2);
    }
    let provenance = Provenance::collect(
        &opts.root,
        &opts.workload,
        opts.seed,
        opts.seconds,
        opts.trace,
        opts.jobs,
    );
    let (report, tracer) = match workloads::run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload);
            return ExitCode::from(2);
        }
    };
    let stem = format!(
        "{}-seed{}-trace{}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace)
    );
    if let Some(mut tr) = tracer {
        let path = opts.out_dir.join(format!("{stem}.trace.json"));
        let doc = tr.chrome_trace();
        if let Err(e) = omp_json::validate(&doc).and_then(|()| {
            std::fs::write(&path, doc).map_err(|e| format!("cannot write {}: {e}", path.display()))
        }) {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
        eprintln!("perfbench: spans written to {}", path.display());
    }
    let detail = report.detail_json(&provenance, opts.trace);
    let _ = std::fs::write(opts.out_dir.join(format!("{stem}.json")), &detail);
    println!("{detail}");
    println!("{}", report.result_line(opts.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
