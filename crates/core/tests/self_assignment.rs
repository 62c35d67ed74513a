//! Long chains of self-assignments (`a = a;`) promote to one SSA value.
//!
//! mem2reg maps each load of `a` to the value stored before it, which
//! for `a = a;` is the previous load, so the statements form a chain of
//! replacements. Every link must be followed, however long the chain:
//! a use left pointing at a removed load breaks later passes.

use omp_gpu::{pipeline, BuildConfig, Device, LaunchDims, RtVal};

fn chain_source(statements: usize) -> String {
    format!(
        r#"
void k(long* out, long n) {{
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < n; i++) {{
    long a = i * 3;
{chain}
    out[i] = a + 1;
  }}
}}
"#,
        chain = "    a = a;\n".repeat(statements)
    )
}

fn check_chain(statements: usize) {
    let src = chain_source(statements);
    let n = 16usize;
    let expected: Vec<i64> = (0..n as i64).map(|i| i * 3 + 1).collect();
    for cfg in BuildConfig::ALL {
        let (m, _) = pipeline::build(&src, cfg)
            .unwrap_or_else(|e| panic!("{statements} statements [{cfg:?}]: {e}"));
        omp_ir::verifier::assert_valid(&m);
        let mut dev = Device::new(&m, Default::default()).unwrap();
        let out = dev.alloc_i64(&vec![0; n]).unwrap();
        dev.launch(
            "k",
            &[RtVal::Ptr(out), RtVal::I64(n as i64)],
            LaunchDims {
                teams: Some(2),
                threads: Some(4),
            },
        )
        .unwrap();
        assert_eq!(
            dev.read_i64(out, n).unwrap(),
            expected,
            "{statements} statements [{cfg:?}]"
        );
    }
}

#[test]
fn seventy_self_assignments_build_and_run_under_every_config() {
    check_chain(70);
}

#[test]
fn two_hundred_self_assignments_build_and_run_under_every_config() {
    check_chain(200);
}
