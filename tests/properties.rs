//! Property-based tests over the reproduction's core invariants:
//! encodings are bijections, the segmented toolkit operations satisfy
//! their algebraic laws, and every language layer agrees with the one
//! above it on randomized inputs.

use nsc::algebra::sa::flatten::{compile_type, decode, encode};
use nsc::algebra::sa::map_lemma as ml;
use nsc::algebra::sa::seq::{batch_len, decode_batch, encode_batch, seq_type};
use nsc::core::value::Value;
use nsc::core::Type;
use proptest::prelude::*;

/// Random nested value of type [[N]] (the workhorse nested type).
fn nested() -> impl Strategy<Value = Vec<Vec<u64>>> {
    proptest::collection::vec(proptest::collection::vec(0u64..100, 0..6), 0..8)
}

fn to_value(v: &[Vec<u64>]) -> Value {
    Value::seq(
        v.iter()
            .map(|xs| Value::nat_seq(xs.iter().copied()))
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// Random NSC terms for the parser round-trip property.
//
// The vendored proptest shim has no recursive combinators, so terms are
// generated fuzz-style: a word vector drives a deterministic decoder that
// picks constructors until the depth budget runs out (the same technique
// as `bvram::fuzz::decode_program`).  Shrinking the word vector shrinks
// the term.  The terms are well-scoped but deliberately NOT type-checked:
// the round-trip law is purely syntactic.
// ---------------------------------------------------------------------------

struct Words<'a> {
    ws: &'a [u64],
    i: usize,
}

impl Words<'_> {
    fn next(&mut self) -> u64 {
        let w = self.ws[self.i % self.ws.len()];
        // Mix the position in so a cycled word vector doesn't lock the
        // decoder into one constructor forever.
        self.i += 1;
        w.wrapping_add(0x9e3779b97f4a7c15u64.wrapping_mul(self.i as u64))
    }

    fn pick(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const NAMES: &[&str] = &["x", "y", "zs", "acc", "p#0", "__tmp", "a1"];

fn gen_name(w: &mut Words) -> &'static str {
    NAMES[w.pick(NAMES.len() as u64) as usize]
}

fn gen_type(w: &mut Words, depth: u64) -> Type {
    match if depth == 0 { w.pick(3) } else { w.pick(6) } {
        0 => Type::Unit,
        1 => Type::Nat,
        2 => Type::bool_(),
        3 => Type::seq(gen_type(w, depth - 1)),
        4 => Type::prod(gen_type(w, depth - 1), gen_type(w, depth - 1)),
        _ => Type::sum(gen_type(w, depth - 1), gen_type(w, depth - 1)),
    }
}

fn gen_term(w: &mut Words, depth: u64) -> nsc::core::Term {
    use nsc::core::ast::*;
    if depth == 0 {
        return match w.pick(6) {
            0 => var(gen_name(w)),
            1 => nat(w.pick(1000)),
            2 => unit(),
            3 => tt(),
            4 => ff(),
            _ => empty(gen_type(w, 1)),
        };
    }
    let d = depth - 1;
    match w.pick(24) {
        0 => var(gen_name(w)),
        1 => nat(w.pick(1000)),
        2 => unit(),
        3 => omega(gen_type(w, 2)),
        4 => {
            let ops = [
                ArithOp::Add,
                ArithOp::Monus,
                ArithOp::Mul,
                ArithOp::Div,
                ArithOp::Mod,
                ArithOp::Rshift,
                ArithOp::Lshift,
                ArithOp::Min,
                ArithOp::Max,
                ArithOp::Log2,
            ];
            arith(
                ops[w.pick(ops.len() as u64) as usize],
                gen_term(w, d),
                gen_term(w, d),
            )
        }
        5 => eq(gen_term(w, d), gen_term(w, d)),
        6 => le(gen_term(w, d), gen_term(w, d)),
        7 => lt(gen_term(w, d), gen_term(w, d)),
        8 => pair(gen_term(w, d), gen_term(w, d)),
        9 => fst(gen_term(w, d)),
        10 => snd(gen_term(w, d)),
        11 => inl(gen_term(w, d), gen_type(w, 2)),
        12 => inr(gen_term(w, d), gen_type(w, 2)),
        13 => case(
            gen_term(w, d),
            gen_name(w),
            gen_term(w, d),
            gen_name(w),
            gen_term(w, d),
        ),
        14 => app(gen_func(w, d), gen_term(w, d)),
        15 => empty(gen_type(w, 2)),
        16 => singleton(gen_term(w, d)),
        17 => append(gen_term(w, d), gen_term(w, d)),
        18 => flatten(gen_term(w, d)),
        19 => length(gen_term(w, d)),
        20 => get(gen_term(w, d)),
        21 => zip(gen_term(w, d), gen_term(w, d)),
        22 => enumerate(gen_term(w, d)),
        _ => split(gen_term(w, d), gen_term(w, d)),
    }
}

fn gen_func(w: &mut Words, depth: u64) -> nsc::core::Func {
    use nsc::core::ast::*;
    if depth == 0 {
        return lam(gen_name(w), var(gen_name(w)));
    }
    let d = depth - 1;
    match w.pick(5) {
        0 => lam(gen_name(w), gen_term(w, d)),
        1 => lam_t(gen_name(w), gen_type(w, 2), gen_term(w, d)),
        2 => map(gen_func(w, d)),
        3 => while_(gen_func(w, d), gen_func(w, d)),
        _ => named("helper"),
    }
}

/// A random scalar body over `x : N` built only from `N → N → N`
/// operators, so a `map` chain of these always type checks end to end —
/// `div`/`mod` keep genuine `Ω` cases (division by zero) in play.
fn gen_scalar_body(w: &mut Words, depth: u64) -> nsc::core::Term {
    use nsc::core::ast::*;
    if depth == 0 {
        return if w.pick(2) == 0 {
            var("x")
        } else {
            nat(w.pick(9))
        };
    }
    let d = depth - 1;
    match w.pick(7) {
        0 => var("x"),
        1 => nat(w.pick(9)),
        2 => add(gen_scalar_body(w, d), gen_scalar_body(w, d)),
        3 => mul(gen_scalar_body(w, d), gen_scalar_body(w, d)),
        4 => arith(ArithOp::Div, gen_scalar_body(w, d), gen_scalar_body(w, d)),
        5 => arith(ArithOp::Monus, gen_scalar_body(w, d), gen_scalar_body(w, d)),
        _ => arith(ArithOp::Max, gen_scalar_body(w, d), gen_scalar_body(w, d)),
    }
}

/// Runs a compiled program under a step limit, mapping machine faults
/// onto NSC error semantics exactly like `run_compiled`.  `None`
/// means the limit tripped — the program may genuinely diverge (fuzz
/// functions can type check a constant-true `while`), so the caller
/// must skip the comparison rather than decide it.
fn run_bounded(
    c: &nsc::compile::Compiled,
    arg: &Value,
) -> Option<Result<Value, nsc::core::EvalError>> {
    use nsc::compile::{decode_result, encode_arg, eval_error_of};
    use nsc::machine::MachineError;
    let regs = match encode_arg(arg, &c.dom) {
        Ok(r) => r,
        Err(e) => return Some(Err(e)),
    };
    let out = nsc::machine::Machine::new(c.program.n_regs)
        .with_step_limit(1 << 22)
        .run_owned(&c.program, regs);
    match out {
        Err(MachineError::StepLimit) => None,
        Err(e) => Some(Err(eval_error_of(e))),
        Ok(out) => Some(decode_result(&out.outputs, &c.cod)),
    }
}

thread_local! {
    /// The shared suite with each function compiled down to the BVRAM
    /// once per thread, not once per property case. (`Func` holds `Rc`s,
    /// so a process-global cache is not an option.)
    static COMPILED_SUITE: Vec<(&'static str, nsc::core::Func, nsc::compile::Compiled)> = {
        let dom = Type::seq(Type::Nat);
        nsc::runtime::workloads::suite()
            .into_iter()
            .map(|(name, f)| {
                let c = nsc::compile::compile_nsc(&f, &dom).expect(name);
                (name, f, c)
            })
            .collect()
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SEQ batch encoding is a bijection on [N]-element batches.
    #[test]
    fn prop_seq_encoding_bijective(v in nested()) {
        let t = Type::seq(Type::Nat);
        let vals: Vec<Value> = v.iter().map(|xs| Value::nat_seq(xs.iter().copied())).collect();
        let enc = encode_batch(&vals, &t).unwrap();
        prop_assert!(seq_type(&t).admits(&enc));
        prop_assert_eq!(batch_len(&enc, &t).unwrap(), vals.len());
        prop_assert_eq!(decode_batch(&enc, &t).unwrap(), vals);
    }

    /// COMPILE's encode/decode round-trips arbitrary [[N]] values.
    #[test]
    fn prop_compile_encoding_bijective(v in nested()) {
        let t = Type::seq(Type::seq(Type::Nat));
        let val = to_value(&v);
        let enc = encode(&val, &t).unwrap();
        prop_assert!(compile_type(&t).admits(&enc));
        prop_assert_eq!(decode(&enc, &t).unwrap(), val);
    }

    /// pack(flags) ++ pack(!flags) is a permutation-free partition: merging
    /// the two parts back with the same flags restores the batch.
    #[test]
    fn prop_pack_merge_inverse(v in nested()) {
        let t = Type::seq(Type::Nat);
        let vals: Vec<Value> = v.iter().map(|xs| Value::nat_seq(xs.iter().copied())).collect();
        let flags: Vec<bool> = vals.iter().enumerate().map(|(i, _)| i % 3 != 1).collect();
        let fl = Value::seq(flags.iter().map(|b| Value::bool_(*b)).collect());
        let enc = encode_batch(&vals, &t).unwrap();

        let packed_t = nsc::algebra::sa::apply_sa(
            &ml::pack_enc(&t).unwrap(),
            &Value::pair(fl.clone(), enc.clone()),
        ).unwrap().0;
        let packed_f = nsc::algebra::sa::apply_sa(
            &ml::pack_enc_false(&t).unwrap(),
            &Value::pair(fl.clone(), enc),
        ).unwrap().0;
        let merged = nsc::algebra::sa::apply_sa(
            &ml::merge_enc(&t).unwrap(),
            &Value::pair(fl, Value::pair(packed_t, packed_f)),
        ).unwrap().0;
        prop_assert_eq!(decode_batch(&merged, &t).unwrap(), vals);
    }

    /// reorder_enc really is a stable sort by index: feeding any
    /// permutation of 0..n restores ascending order.
    #[test]
    fn prop_reorder_sorts_by_index(v in nested(), seed in 0u64..1000) {
        let t = Type::seq(Type::Nat);
        let n = v.len();
        let vals: Vec<Value> = v.iter().map(|xs| Value::nat_seq(xs.iter().copied())).collect();
        // pseudo-random permutation from the seed
        let mut perm: Vec<u64> = (0..n as u64).collect();
        for i in 0..n {
            let j = ((seed.wrapping_mul(6364136223846793005).wrapping_add(i as u64)) as usize) % n.max(1);
            perm.swap(i, j);
        }
        // batch arranged so element k holds original index perm[k]
        let enc = encode_batch(&vals, &t).unwrap();
        let idx = Value::nat_seq(perm.iter().copied());
        let out = nsc::algebra::sa::apply_sa(
            &ml::reorder_enc(&t).unwrap(),
            &Value::pair(idx, enc),
        ).unwrap().0;
        let got = decode_batch(&out, &t).unwrap();
        // got[j] must be the element whose index was j, i.e. vals inverse-permuted
        let mut want = vec![Value::nat_seq([]); n];
        for (k, &p) in perm.iter().enumerate() {
            want[p as usize] = vals[k].clone();
        }
        prop_assert_eq!(got, want);
    }

    /// gather_sorted == indexing for arbitrary sorted index sets.
    #[test]
    fn prop_gather_sorted(xs in proptest::collection::vec(0u64..500, 1..30),
                          picks in proptest::collection::vec(0usize..29, 0..10)) {
        let n = xs.len();
        let mut idx: Vec<u64> = picks.iter().map(|p| (*p % n) as u64).collect();
        idx.sort();
        let want: Vec<u64> = idx.iter().map(|i| xs[*i as usize]).collect();
        let arg = Value::pair(Value::nat_seq(xs), Value::nat_seq(idx));
        let (o, _) = nsc::algebra::sa::apply_sa(&ml::gather_sorted(), &arg).unwrap();
        prop_assert_eq!(o.as_nat_seq().unwrap(), want);
    }

    /// BVRAM prefix-sum codegen equals the reference scan for any input.
    #[test]
    fn prop_prefix_sum_codegen(xs in proptest::collection::vec(0u64..1000, 0..80)) {
        use nsc::algebra::sa::Sa;
        let (prog, _) = nsc::compile::compile_sa(&Sa::PrefixSum, &Type::seq(Type::Nat)).unwrap();
        let out = nsc::machine::run_program(&prog, std::slice::from_ref(&xs)).unwrap();
        let want: Vec<u64> = xs.iter().scan(0u64, |a, x| { *a += x; Some(*a) }).collect();
        prop_assert_eq!(out.outputs[0].clone(), want);
    }

    /// The BVRAM optimizer preserves exact semantics on arbitrary random
    /// straight-line programs: identical outputs (or an identical fault,
    /// up to the shifted instruction index) and never-worse `T'`/`W'`.
    #[test]
    fn prop_optimizer_preserves_straightline_semantics(
        words in proptest::collection::vec(0u64..u64::MAX, 1..50),
        a in proptest::collection::vec(0u64..50, 0..40),
        b in proptest::collection::vec(0u64..50, 0..40),
        c in proptest::collection::vec(0u64..5, 0..6),
    ) {
        use nsc::compile::{optimize, OptLevel};
        use nsc::machine::MachineError as ME;
        // Optimization moves instructions, so fault indices legitimately
        // shift; everything else about the fault must be identical.
        fn mask_pc(e: ME) -> ME {
            match e {
                ME::LengthMismatch { a, b, .. } => ME::LengthMismatch { at: 0, a, b },
                ME::RouteInvariant { what, .. } => ME::RouteInvariant { at: 0, what },
                ME::Arithmetic { .. } => ME::Arithmetic { at: 0 },
                other => other,
            }
        }
        // Two output registers so dead code exists for the optimizer.
        let prog = nsc::machine::fuzz::decode_program(&words, [a.len(), b.len(), c.len()], 2);
        let opt = optimize(prog.clone(), OptLevel::O1);
        prop_assert!(opt.n_regs <= prog.n_regs);
        let inputs = vec![a, b, c];
        let r0 = nsc::machine::run_program(&prog, &inputs);
        let r1 = nsc::machine::run_program(&opt, &inputs);
        match (r0, r1) {
            (Ok(x), Ok(y)) => {
                prop_assert_eq!(&x.outputs, &y.outputs, "optimizer changed outputs\n{}\n{}", prog, opt);
                prop_assert!(
                    y.stats.time <= x.stats.time && y.stats.work <= x.stats.work,
                    "optimizer made the program costlier: {:?} -> {:?}\n{}\n{}",
                    x.stats, y.stats, prog, opt
                );
            }
            (Err(x), Err(y)) => prop_assert_eq!(
                mask_pc(x), mask_pc(y),
                "fault changed\n{}\n{}", prog, opt
            ),
            (x, y) => prop_assert!(false, "fault behavior changed: {:?} vs {:?}\n{}\n{}", x, y, prog, opt),
        }
    }

    /// The static verifier accepts every machine-generatable program: a
    /// fuzz program is structurally well-formed by construction, so
    /// `verify` must report no violations on it — and none on its
    /// optimized form either (the optimizer may not *introduce*
    /// malformedness).  This is the verifier's false-positive guard: a
    /// check that rejects valid programs would break per-pass
    /// translation validation everywhere.
    #[test]
    fn prop_fuzz_programs_verify_ok(
        words in proptest::collection::vec(0u64..u64::MAX, 1..60),
        la in 0usize..40, lb in 0usize..40, lc in 0usize..6,
    ) {
        use nsc::compile::{optimize, OptLevel};
        let prog = nsc::machine::fuzz::decode_program(&words, [la, lb, lc], 2);
        let before = nsc::machine::verify_program(&prog);
        prop_assert!(before.ok(), "verifier rejected a fuzz program:\n{before}\n{prog}");
        let opt = optimize(prog.clone(), OptLevel::O1);
        let after = nsc::machine::verify_program(&opt);
        prop_assert!(after.ok(), "verifier rejected an optimized fuzz program:\n{after}\n{opt}");
        // Optimization must never conjure reads of never-written
        // registers out of a program that had none.
        if before.uninit_reads.is_empty() {
            prop_assert!(
                after.uninit_reads.is_empty(),
                "optimizer introduced uninit reads:\n{after}\n{prog}\n{opt}"
            );
        }
    }

    /// The compiler agrees with the Definition 3.1 evaluator on fuzz
    /// functions: wherever a function compiles at `O1`, the compiled
    /// program returns the evaluator's value, and `Ω` exactly where the
    /// evaluator reports a source-level error.  A machine fault — from
    /// the compile gate or from a run — is never acceptable.  An
    /// evaluator out of fuel or a machine at its step limit skips the
    /// case (fuzz functions can type check a genuinely divergent
    /// `while`); so does a function the front end rejects.
    #[test]
    fn prop_compiled_fuzz_functions_agree_with_the_evaluator(
        words in proptest::collection::vec(0u64..u64::MAX, 1..40),
        depth in 1u64..4,
        xs in proptest::collection::vec(0u64..50, 0..10),
    ) {
        use nsc::compile::{compile_nsc_with, OptLevel};
        use nsc::core::eval::{Evaluator, FuncTable};
        use nsc::core::EvalError;
        let f = gen_func(&mut Words { ws: &words, i: 0 }, depth);
        let dom = Type::seq(Type::Nat);
        let c = match compile_nsc_with(&f, &dom, OptLevel::O1) {
            Ok(c) => c,
            Err(e) => {
                prop_assert!(
                    !matches!(e, EvalError::MachineFault(_)),
                    "compiling {} hit a machine fault: {:?}", f, e
                );
                return Ok(());
            }
        };
        let arg = Value::nat_seq(xs.iter().copied());
        let Some(got) = run_bounded(&c, &arg) else { return Ok(()) };
        let table = FuncTable::new();
        let want = Evaluator::new(&table)
            .with_fuel(1 << 22)
            .apply_closed(&f, arg.clone())
            .map(|p| p.0);
        match (&got, &want) {
            (_, Err(EvalError::FuelExhausted)) => {}
            (Ok(g), Ok(v)) => prop_assert_eq!(g, v, "{} disagrees with the evaluator on {}", f, arg),
            (Err(EvalError::Omega), Err(e)) => prop_assert!(
                !matches!(e, EvalError::MachineFault(_)),
                "evaluator reported a machine fault on {}: {:?}", f, e
            ),
            _ => prop_assert!(
                false,
                "{} on {}: compiled {:?} vs evaluator {:?}",
                f, arg, got, want
            ),
        }
    }

    /// A chain of `k` `map`s over random total scalar bodies agrees with
    /// the NSC evaluator on every input: division-by-zero faults classify
    /// as `Ω` on the machine, never as a machine fault.
    #[test]
    fn prop_map_chains_agree_with_the_evaluator(
        words in proptest::collection::vec(0u64..u64::MAX, 1..20),
        k in 2u64..5,
        xs in proptest::collection::vec(0u64..20, 0..10),
    ) {
        use nsc::compile::{compile_nsc_with, run_compiled, OptLevel};
        use nsc::core::ast as a;
        let mut w = Words { ws: &words, i: 0 };
        let mut body = a::var("v");
        for _ in 0..k {
            body = a::app(a::map(a::lam("x", gen_scalar_body(&mut w, 3))), body);
        }
        let f = a::lam("v", body);
        let c = compile_nsc_with(&f, &Type::seq(Type::Nat), OptLevel::O1).unwrap();
        let arg = Value::nat_seq(xs.iter().copied());
        // The evaluator keeps fine-grained fault causes (`DivisionByZero`)
        // that the machine legitimately coarsens to `Ω`; what must agree
        // is success vs source-level fault, never a machine fault.
        let want = nsc::core::eval::apply_func(&f, arg.clone()).map(|p| p.0);
        let got = run_compiled(&c, &arg).map(|p| p.0);
        match (&got, &want) {
            (Ok(g), Ok(v)) => prop_assert_eq!(g, v, "map chain disagrees with the evaluator on {}", f),
            (Err(nsc::core::EvalError::Omega), Err(e)) => prop_assert!(
                !matches!(e, nsc::core::EvalError::MachineFault(_)),
                "evaluator reported a machine fault on {}: {:?}", f, e
            ),
            _ => prop_assert!(
                false,
                "map chain fault behavior diverges from the evaluator on {}: {:?} vs {:?}",
                f, got, want
            ),
        }
    }

    /// The surface-syntax round trip: `parse(pretty(t)) == t` for random
    /// terms over every constructor, and likewise for functions.  Purely
    /// syntactic — the generated terms need not type check.
    #[test]
    fn prop_parse_pretty_roundtrip(words in proptest::collection::vec(0u64..u64::MAX, 1..40),
                                   depth in 1u64..6) {
        let mut w = Words { ws: &words, i: 0 };
        let t = gen_term(&mut w, depth);
        let printed = t.to_string();
        let back = nsc::core::parse::parse_term(&printed);
        prop_assert!(back.is_ok(), "printed term does not re-parse: {:?}\n{printed}", back.err());
        prop_assert_eq!(back.unwrap(), t, "round trip changed the term: {}", printed);

        let f = gen_func(&mut w, depth);
        let printed = f.to_string();
        let back = nsc::core::parse::parse_func(&printed);
        prop_assert!(back.is_ok(), "printed func does not re-parse: {:?}\n{printed}", back.err());
        prop_assert_eq!(back.unwrap(), f, "round trip changed the function: {}", printed);
    }

    /// Types round-trip through their `Display` form as well.
    #[test]
    fn prop_type_display_roundtrip(words in proptest::collection::vec(0u64..u64::MAX, 1..10),
                                   depth in 0u64..5) {
        let mut w = Words { ws: &words, i: 0 };
        let t = gen_type(&mut w, depth);
        prop_assert_eq!(nsc::core::parse::parse_type(&t.to_string()).unwrap(), t);
    }

    /// NSC evaluator and NSA translation agree on stdlib pipelines over
    /// random data (Proposition C.1 on values).
    #[test]
    fn prop_nsc_nsa_agree(xs in proptest::collection::vec(0u64..100, 0..40)) {
        use nsc::core::ast as a;
        let f = a::lam("x", nsc::core::stdlib::numeric::prefix_sum(a::var("x")));
        let arg = Value::nat_seq(xs);
        let (want, _) = nsc::core::eval::apply_func(&f, arg.clone()).unwrap();
        let g = nsc::algebra::nsa::from_nsc::func_to_nsa(&f).unwrap();
        let (got, _) = nsc::algebra::nsa::apply(&g, &arg).unwrap();
        prop_assert_eq!(got, want);
    }

    /// Definition 3.1 evaluator costs and compiled-BVRAM machine costs
    /// agree on the *direction* of the asymptotics on the end-to-end
    /// suite: both work measures grow strictly with input length, the
    /// evaluator's parallel time never decreases, and whenever the
    /// evaluator's time steps up (a new recursion/iteration level) the
    /// machine's step count steps up with it. (Machine steps are allowed
    /// a small wobble *within* a level: ragged divide-and-conquer splits
    /// make e.g. n=4 a few instructions cheaper than n=3.)
    #[test]
    fn prop_costs_monotone_in_input_size(n1 in 1u64..24, extra in 1u64..24) {
        let n2 = n1 + extra;
        // Inputs at n1 are a prefix of inputs at n2, so every per-element
        // quantity (e.g. while-iteration counts) is pointwise dominated.
        let arg = |n: u64| Value::nat_seq((0..n).map(|i| (i * 31) % 17));
        COMPILED_SUITE.with(|suite| {
            for (name, f, c) in suite {
                let (_, src1) = nsc::core::eval::apply_func(f, arg(n1)).unwrap();
                let (_, src2) = nsc::core::eval::apply_func(f, arg(n2)).unwrap();
                let (_, tgt1) = nsc::compile::run_compiled(c, &arg(n1)).unwrap();
                let (_, tgt2) = nsc::compile::run_compiled(c, &arg(n2)).unwrap();
                prop_assert!(
                    src2.work > src1.work,
                    "{name}: evaluator work not strictly monotone ({} at n={n1}, {} at n={n2})",
                    src1.work, src2.work
                );
                prop_assert!(
                    tgt2.work > tgt1.work,
                    "{name}: machine work not strictly monotone ({} at n={n1}, {} at n={n2})",
                    tgt1.work, tgt2.work
                );
                prop_assert!(
                    src2.time >= src1.time,
                    "{name}: evaluator time decreased ({} at n={n1}, {} at n={n2})",
                    src1.time, src2.time
                );
                if src2.time > src1.time {
                    prop_assert!(
                        tgt2.time > tgt1.time,
                        "{name}: evaluator time grew ({} -> {}) but machine steps did not \
                         ({} at n={n1}, {} at n={n2})",
                        src1.time, src2.time, tgt1.time, tgt2.time
                    );
                }
            }
            Ok(())
        })?;
    }

    /// Butterfly monotone routing delivers every packet and never
    /// congests (Proposition 2.1's obliviousness).
    #[test]
    fn prop_butterfly_monotone_oblivious(k in 1usize..100) {
        let net = nsc::net::Butterfly::for_size(2 * k);
        // any monotone injection src -> dst with dst >= src... use dst = min(2*src, rows-1) monotone
        let rows = net.rows();
        let packets: Vec<(usize, usize, u64)> = (0..k)
            .map(|i| (i, (2 * i).min(rows - 1), i as u64))
            .collect();
        // make strictly monotone to stay a valid packing pattern
        let mut last = 0usize;
        let packets: Vec<(usize, usize, u64)> = packets
            .into_iter()
            .enumerate()
            .map(|(i, (s, d, p))| {
                let d = d.max(last.min(rows - 1)).min(rows - 1);
                last = (d + 1).min(rows - 1);
                (s.min(rows - 1), d, p + i as u64 - i as u64)
            })
            .collect();
        let (_, stats) = net.route(&packets);
        prop_assert!(stats.max_congestion <= 1);
        prop_assert_eq!(stats.steps, rows.trailing_zeros() as u64);
    }
}
