//! Property-based soundness tests: random programs and random launch
//! geometries must compute identical results under every optimization
//! configuration, and must agree with a host-side evaluation.

use omp_gpu::{pipeline, BuildConfig, Device, LaunchDims, RtVal};
use proptest::prelude::*;

/// A small integer expression over three variables, mirrored between
/// the mini-C source and a host evaluator with wrapping semantics.
#[derive(Debug, Clone)]
enum E {
    X,
    Y,
    I,
    Lit(i64),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    RemSafe(Box<E>, Box<E>),
}

impl E {
    fn to_c(&self) -> String {
        match self {
            E::X => "x".into(),
            E::Y => "y".into(),
            E::I => "i".into(),
            E::Lit(v) => format!("{v}"),
            E::Add(a, b) => format!("({} + {})", a.to_c(), b.to_c()),
            E::Sub(a, b) => format!("({} - {})", a.to_c(), b.to_c()),
            E::Mul(a, b) => format!("({} * {})", a.to_c(), b.to_c()),
            // `| 1` keeps the divisor nonzero in both worlds.
            E::RemSafe(a, b) => format!("({} % (({} | 1)))", a.to_c(), b.to_c()),
        }
    }

    fn eval(&self, x: i64, y: i64, i: i64) -> i64 {
        match self {
            E::X => x,
            E::Y => y,
            E::I => i,
            E::Lit(v) => *v,
            E::Add(a, b) => a.eval(x, y, i).wrapping_add(b.eval(x, y, i)),
            E::Sub(a, b) => a.eval(x, y, i).wrapping_sub(b.eval(x, y, i)),
            E::Mul(a, b) => a.eval(x, y, i).wrapping_mul(b.eval(x, y, i)),
            E::RemSafe(a, b) => {
                let d = b.eval(x, y, i) | 1;
                let n = a.eval(x, y, i);
                // i64::MIN % -1 is the only remaining trap; the IR's
                // folder refuses it and the kernel would trap, so the
                // generator below keeps literals small enough that it
                // cannot occur in practice.
                n.wrapping_rem(d)
            }
        }
    }
}

fn expr_strategy() -> impl Strategy<Value = E> {
    let leaf = prop_oneof![
        Just(E::X),
        Just(E::Y),
        Just(E::I),
        (-50i64..50).prop_map(E::Lit),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| E::RemSafe(Box::new(a), Box::new(b))),
        ]
    })
}

fn kernel_source(e: &E, generic: bool) -> String {
    if generic {
        format!(
            r#"
void k(long* out, long x, long y, long n) {{
  #pragma omp target teams distribute
  for (long b = 0; b < 2; b++) {{
    long base = b * (n / 2);
    #pragma omp parallel for
    for (long j = 0; j < n / 2; j++) {{
      long i = base + j;
      out[i] = {expr};
    }}
  }}
}}
"#,
            expr = e.to_c()
        )
    } else {
        format!(
            r#"
void k(long* out, long x, long y, long n) {{
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < n; i++) {{
    out[i] = {expr};
  }}
}}
"#,
            expr = e.to_c()
        )
    }
}

fn run_kernel(
    src: &str,
    cfg: BuildConfig,
    x: i64,
    y: i64,
    n: usize,
    teams: u32,
    threads: u32,
) -> Vec<i64> {
    let (m, _) = pipeline::build(src, cfg).unwrap();
    let mut dev = Device::new(&m, Default::default()).unwrap();
    let out = dev.alloc_i64(&vec![0; n]).unwrap();
    dev.launch(
        "k",
        &[
            RtVal::Ptr(out),
            RtVal::I64(x),
            RtVal::I64(y),
            RtVal::I64(n as i64),
        ],
        LaunchDims {
            teams: Some(teams),
            threads: Some(threads),
        },
    )
    .unwrap();
    dev.read_i64(out, n).unwrap()
}

/// An operand in a statement-level program: a local, an input, or a
/// literal.
#[derive(Debug, Clone, Copy)]
enum Atom {
    /// Local `v{n % locals}`.
    Var(usize),
    I,
    X,
    Y,
    Lit(i64),
}

/// The right-hand side of an assignment to a local.
#[derive(Debug, Clone, Copy)]
enum Rhs {
    Copy(Atom),
    Add(Atom, Atom),
    Sub(Atom, Atom),
    Mul(Atom, Atom),
}

/// A statement over the `long` locals of a statement-level program.
#[derive(Debug, Clone)]
enum Stmt {
    /// `vA = rhs;` (`vA = vA;` and `vA = vB;` included).
    Assign(usize, Rhs),
    /// `if (a < b) { .. } else { .. }`.
    If(Atom, Atom, Vec<Stmt>, Vec<Stmt>),
}

/// A kernel body: 3–6 locals, straight-line and branching assignments
/// around one bounded `for` loop, then a weighted sum of the locals.
#[derive(Debug, Clone)]
struct Program {
    inits: Vec<Atom>,
    before: Vec<Stmt>,
    trips: i64,
    body: Vec<Stmt>,
    after: Vec<Stmt>,
}

/// Host values of the locals and inputs while evaluating a [`Program`].
struct Env {
    vars: Vec<i64>,
    i: i64,
    x: i64,
    y: i64,
}

impl Atom {
    fn to_c(self, locals: usize) -> String {
        match self {
            Atom::Var(v) => format!("v{}", v % locals),
            Atom::I => "i".into(),
            Atom::X => "x".into(),
            Atom::Y => "y".into(),
            Atom::Lit(v) => format!("{v}"),
        }
    }

    fn eval(self, env: &Env) -> i64 {
        match self {
            Atom::Var(v) => env.vars[v % env.vars.len()],
            Atom::I => env.i,
            Atom::X => env.x,
            Atom::Y => env.y,
            Atom::Lit(v) => v,
        }
    }
}

impl Rhs {
    fn to_c(self, locals: usize) -> String {
        let bin =
            |op: &str, a: Atom, b: Atom| format!("{} {op} {}", a.to_c(locals), b.to_c(locals));
        match self {
            Rhs::Copy(a) => a.to_c(locals),
            Rhs::Add(a, b) => bin("+", a, b),
            Rhs::Sub(a, b) => bin("-", a, b),
            Rhs::Mul(a, b) => bin("*", a, b),
        }
    }

    fn eval(self, env: &Env) -> i64 {
        match self {
            Rhs::Copy(a) => a.eval(env),
            Rhs::Add(a, b) => a.eval(env).wrapping_add(b.eval(env)),
            Rhs::Sub(a, b) => a.eval(env).wrapping_sub(b.eval(env)),
            Rhs::Mul(a, b) => a.eval(env).wrapping_mul(b.eval(env)),
        }
    }
}

impl Stmt {
    fn to_c(&self, locals: usize, out: &mut String) {
        match self {
            Stmt::Assign(v, rhs) => {
                out.push_str(&format!("v{} = {};\n", v % locals, rhs.to_c(locals)))
            }
            Stmt::If(a, b, then, els) => {
                out.push_str(&format!(
                    "if ({} < {}) {{\n",
                    a.to_c(locals),
                    b.to_c(locals)
                ));
                then.iter().for_each(|s| s.to_c(locals, out));
                out.push_str("} else {\n");
                els.iter().for_each(|s| s.to_c(locals, out));
                out.push_str("}\n");
            }
        }
    }

    fn eval(&self, env: &mut Env) {
        match self {
            Stmt::Assign(v, rhs) => {
                let n = env.vars.len();
                env.vars[v % n] = rhs.eval(env);
            }
            Stmt::If(a, b, then, els) => {
                let arm = if a.eval(env) < b.eval(env) { then } else { els };
                arm.iter().for_each(|s| s.eval(env));
            }
        }
    }
}

impl Program {
    fn source(&self) -> String {
        let n = self.inits.len();
        let mut body = String::new();
        for (v, init) in self.inits.iter().enumerate() {
            body.push_str(&format!("long v{v} = {};\n", init.to_c(n)));
        }
        self.before.iter().for_each(|s| s.to_c(n, &mut body));
        body.push_str(&format!("for (long t = 0; t < {}; t++) {{\n", self.trips));
        self.body.iter().for_each(|s| s.to_c(n, &mut body));
        body.push_str("}\n");
        self.after.iter().for_each(|s| s.to_c(n, &mut body));
        let sum: Vec<String> = (0..n).map(|v| format!("v{v} * {}", 2 * v + 1)).collect();
        format!(
            r#"
void k(long* out, long x, long y, long n) {{
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < n; i++) {{
{body}    out[i] = {sum};
  }}
}}
"#,
            sum = sum.join(" + ")
        )
    }

    fn eval(&self, x: i64, y: i64, i: i64) -> i64 {
        let mut env = Env {
            vars: Vec::new(),
            i,
            x,
            y,
        };
        for init in &self.inits {
            let v = init.eval(&env);
            env.vars.push(v);
        }
        self.before.iter().for_each(|s| s.eval(&mut env));
        for _ in 0..self.trips {
            self.body.iter().for_each(|s| s.eval(&mut env));
        }
        self.after.iter().for_each(|s| s.eval(&mut env));
        env.vars.iter().enumerate().fold(0i64, |acc, (v, &val)| {
            acc.wrapping_add(val.wrapping_mul(2 * v as i64 + 1))
        })
    }
}

fn atom_strategy() -> impl Strategy<Value = Atom> {
    prop_oneof![
        (0usize..6).prop_map(Atom::Var),
        (0usize..6).prop_map(Atom::Var),
        Just(Atom::I),
        Just(Atom::X),
        Just(Atom::Y),
        (-9i64..10).prop_map(Atom::Lit),
    ]
}

fn stmt_strategy() -> impl Strategy<Value = Stmt> {
    let a = atom_strategy;
    let leaf = prop_oneof![
        (0usize..6).prop_map(|v| Stmt::Assign(v, Rhs::Copy(Atom::Var(v)))),
        (0usize..6, 0usize..6).prop_map(|(v, w)| Stmt::Assign(v, Rhs::Copy(Atom::Var(w)))),
        (0usize..6, a()).prop_map(|(v, x)| Stmt::Assign(v, Rhs::Copy(x))),
        (0usize..6, a(), a()).prop_map(|(v, x, y)| Stmt::Assign(v, Rhs::Add(x, y))),
        (0usize..6, a(), a()).prop_map(|(v, x, y)| Stmt::Assign(v, Rhs::Sub(x, y))),
        (0usize..6, a(), a()).prop_map(|(v, x, y)| Stmt::Assign(v, Rhs::Mul(x, y))),
    ];
    leaf.prop_recursive(2, 16, 3, move |inner| {
        (
            a(),
            a(),
            prop::collection::vec(inner.clone(), 0..4),
            prop::collection::vec(inner, 0..4),
        )
            .prop_map(|(x, y, then, els)| Stmt::If(x, y, then, els))
    })
}

fn program_strategy() -> impl Strategy<Value = Program> {
    let stmts = || prop::collection::vec(stmt_strategy(), 0..6);
    (
        prop::collection::vec(
            prop_oneof![
                Just(Atom::I),
                Just(Atom::X),
                Just(Atom::Y),
                (-9i64..10).prop_map(Atom::Lit)
            ],
            3..7,
        ),
        stmts(),
        0i64..4,
        stmts(),
        stmts(),
    )
        .prop_map(|(inits, before, trips, body, after)| Program {
            inits,
            before,
            trips,
            body,
            after,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The cleanup passes preserve the meaning of local-variable code:
    /// random assignments (self- and cross-assignments included),
    /// branches and a bounded loop over `long` locals compute what a
    /// host evaluation computes, under every build configuration.
    #[test]
    fn local_variable_programs_match_host_eval_under_every_config(
        p in program_strategy(),
        x in -100i64..100,
        y in -100i64..100,
        n in 1usize..20,
    ) {
        let src = p.source();
        let expected: Vec<i64> = (0..n as i64).map(|i| p.eval(x, y, i)).collect();
        for cfg in BuildConfig::ALL {
            let got = run_kernel(&src, cfg, x, y, n, 2, 8);
            prop_assert_eq!(&got, &expected, "config {:?}\n{}", cfg, src);
        }
    }

    /// SPMD-source kernels over random expressions and geometries agree
    /// with the host evaluator under both the disabled and the full
    /// pipeline.
    #[test]
    fn spmd_kernels_match_host_eval(
        e in expr_strategy(),
        x in -100i64..100,
        y in -100i64..100,
        n in 1usize..40,
        teams in 1u32..4,
        threads in 1u32..16,
    ) {
        let src = kernel_source(&e, false);
        let expected: Vec<i64> = (0..n as i64).map(|i| e.eval(x, y, i)).collect();
        for cfg in [BuildConfig::NoOpenmpOpt, BuildConfig::LlvmDev] {
            let got = run_kernel(&src, cfg, x, y, n, teams, threads);
            prop_assert_eq!(&got, &expected, "config {:?}", cfg);
        }
    }

    /// Generic-mode kernels (worker state machine, SPMDization paths)
    /// agree across the LLVM 12 baseline, the unoptimized simplified
    /// scheme, the CSM-only pipeline, and the full pipeline.
    #[test]
    fn generic_kernels_agree_across_configs(
        e in expr_strategy(),
        x in -100i64..100,
        y in -100i64..100,
        halfn in 1usize..12,
        threads in 2u32..12,
    ) {
        let n = 2 * halfn;
        let src = kernel_source(&e, true);
        let expected: Vec<i64> = (0..n as i64).map(|i| e.eval(x, y, i)).collect();
        for cfg in [
            BuildConfig::Llvm12Baseline,
            BuildConfig::NoOpenmpOpt,
            BuildConfig::H2S2RtcCsm,
            BuildConfig::LlvmDev,
        ] {
            let got = run_kernel(&src, cfg, x, y, n, 2, threads);
            prop_assert_eq!(&got, &expected, "config {:?}", cfg);
        }
    }
}
