//! The batched execution runtime: one cached program, `B` requests.
//!
//! Two batching disciplines, chosen once per cache entry by program
//! structure:
//!
//! * **Pack** — fuse the batch into a *single* BVRAM run of the cached
//!   Map-Lemma kernel `map(f) : [s] → [t]`.  The flattening translation
//!   encodes `[x₁, …, x_B]` as lane-concatenated data registers plus
//!   lane-offset descriptor registers, so all `B` requests march through
//!   one instruction stream: the whole batch pays one `T'` instead of
//!   `B` of them.  This is exactly the paper's aggregation story applied
//!   to serving — the same flattening that batches the iterations of a
//!   `while` under `map` (Lemma 7.2) batches independent requests.
//! * **Lanes** — run the single-request program over the `B` requests in
//!   parallel worker threads ([`bvram::run_lanes_rayon`]), on the `par`
//!   backend additionally with threaded fills inside each lane
//!   ([`bvram::Machine::par`]).  No encoding
//!   overhead and no cross-request coupling, but every request pays the
//!   full per-run `T'`.
//!
//! **Decision rule** ([`BatchMode::of`], stored as
//! [`CachedProgram::mode`]): pack iff the single-request program and its
//! `map(f)` kernel are both *straight-line* — no `Goto`/`IfEmptyGoto`,
//! one basic block.  The Map Lemma lifts `map(f)` by computing both arms
//! of every conditional and keeping every lane marching until the
//! deepest `while` finishes, so on a program with control flow the
//! kernel does many times the work of `B` single runs (24–36x on the
//! branchy goldens); only when `f` has no control flow at all does the
//! kernel do the same work as `B` single runs for one `T'`.  The rule
//! never looks at a request: every batch of one entry runs the same
//! discipline, whatever its size.
//!
//! **Fault semantics.** Results are per request and bit-identical to a
//! loop of single runs, including error classification (`Ω` vs compiler
//! fault).  Lanes gives this directly.  A fused pack run shares one
//! machine state, so any request's fault aborts the fused run; the
//! runner then falls back to per-request execution, which reproduces the
//! exact per-request classification ([`BatchOutcome::fused`] reports
//! whether the fused run was used).

use crate::cache::{CachedProgram, CompiledCache};
use bvram::{Instr, Program};
use nsc_compile::pipeline::{decode_result, encode_arg, eval_error_of, run_program_on};
use nsc_compile::{Backend, OptLevel};
use nsc_core::cost::Cost;
use nsc_core::error::EvalError;
use nsc_core::types::Type;
use nsc_core::value::Value;
use nsc_core::Func;
use std::sync::Arc;

/// The two batching disciplines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchMode {
    /// One fused run of the `map(f)` kernel over lane-offset registers.
    Pack,
    /// Parallel per-request runs of the single-request program.
    Lanes,
}

impl BatchMode {
    /// The static batching rule: [`BatchMode::Pack`] iff `single` and
    /// its `map(f)` `kernel` are both straight-line (see the module
    /// docs), else [`BatchMode::Lanes`].
    pub fn of(single: &Program, kernel: &Program) -> BatchMode {
        let straight_line = |p: &Program| {
            !p.instrs
                .iter()
                .any(|i| matches!(i, Instr::Goto { .. } | Instr::IfEmptyGoto { .. }))
        };
        if straight_line(single) && straight_line(kernel) {
            BatchMode::Pack
        } else {
            BatchMode::Lanes
        }
    }

    /// Lower-case name (`pack`/`lanes`), as printed by `nsc run --batch`.
    pub fn name(self) -> &'static str {
        match self {
            BatchMode::Pack => "pack",
            BatchMode::Lanes => "lanes",
        }
    }
}

/// What a batch run returns.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-request results, in request order — bit-identical (value *and*
    /// error classification) to a loop of single runs.
    pub results: Vec<Result<Value, EvalError>>,
    /// The discipline that was executed.
    pub mode: BatchMode,
    /// Whether a single fused (pack) machine run produced the results.
    /// `false` under [`BatchMode::Lanes`], and under [`BatchMode::Pack`]
    /// when a fault forced the per-request fallback.
    pub fused: bool,
    /// Aggregate machine cost: the fused run's `(T', W')` under pack,
    /// and the parallel composition (`T' = max`, `W' = Σ`) under lanes
    /// (including pack's per-request fallback, which replays through the
    /// lanes discipline).
    pub cost: Cost,
}

/// A handle running batches against one shared [`CachedProgram`] on one
/// backend (`Send + Sync`; building one is an `Arc` clone).
#[derive(Debug)]
pub struct BatchRunner {
    cached: Arc<CachedProgram>,
    backend: Backend,
}

impl BatchRunner {
    /// Wraps a cache entry.
    pub fn new(cached: Arc<CachedProgram>, backend: Backend) -> BatchRunner {
        BatchRunner { cached, backend }
    }

    /// Compiles (or fetches) `f : dom → …` from `cache` and wraps it.
    pub fn from_cache(
        cache: &CompiledCache,
        f: &Func,
        dom: &Type,
        opt: OptLevel,
        backend: Backend,
    ) -> Result<BatchRunner, EvalError> {
        Ok(BatchRunner::new(
            cache.get_or_compile(f, dom, opt, backend)?,
            backend,
        ))
    }

    /// The shared cache entry this runner executes.
    pub fn cached(&self) -> &Arc<CachedProgram> {
        &self.cached
    }

    /// The backend this runner executes on.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The NSC domain type of the single-request program.  Serving
    /// layers admission-check each submitted request against this before
    /// batching it.
    pub fn dom(&self) -> &Type {
        &self.cached.single.dom
    }

    /// The NSC codomain type of the single-request program.
    pub fn cod(&self) -> &Type {
        &self.cached.single.cod
    }

    /// Runs one request on the single-request program (the baseline every
    /// batch mode is measured against and must agree with).
    pub fn run_single(&self, arg: &Value) -> Result<(Value, Cost), EvalError> {
        let regs = encode_arg(arg, self.dom())?;
        let out = run_program_on(&self.cached.single.program, regs, self.backend)?;
        let val = decode_result(&out.outputs, self.cod())?;
        Ok((val, Cost::new(out.stats.time, out.stats.work)))
    }

    /// The discipline every batch of this runner executes under: the
    /// cache entry's stored [`CachedProgram::mode`].  The requests are
    /// never inspected; the parameter remains only because the benchmark
    /// harness (`bench/src/replay.rs`) calls `plan(&inputs)`.
    pub fn plan(&self, _inputs: &[Value]) -> BatchMode {
        self.cached.mode()
    }

    /// Runs `B` independent requests under the entry's static mode
    /// ([`BatchRunner::plan`]).
    pub fn run_batch(&self, inputs: &[Value]) -> BatchOutcome {
        self.run_batch_mode(inputs, self.cached.mode())
    }

    /// Runs `B` independent requests under an explicit mode.
    pub fn run_batch_mode(&self, inputs: &[Value], mode: BatchMode) -> BatchOutcome {
        match mode {
            BatchMode::Pack => self.run_pack(inputs),
            BatchMode::Lanes => self.run_lanes(inputs),
        }
    }

    fn run_pack(&self, inputs: &[Value]) -> BatchOutcome {
        let fused = (|| -> Result<(Vec<Value>, Cost), EvalError> {
            let seqv = Value::seq(inputs.to_vec());
            let regs = encode_arg(&seqv, &self.cached.batch.dom)?;
            let out = run_program_on(&self.cached.batch.program, regs, self.backend)?;
            let val = decode_result(&out.outputs, &self.cached.batch.cod)?;
            let items = val
                .as_seq()
                .ok_or(EvalError::Stuck("batch kernel returned a non-sequence"))?
                .to_vec();
            if items.len() != inputs.len() {
                return Err(EvalError::Stuck("batch kernel lost a lane"));
            }
            Ok((items, Cost::new(out.stats.time, out.stats.work)))
        })();
        match fused {
            Ok((items, cost)) => BatchOutcome {
                results: items.into_iter().map(Ok).collect(),
                mode: BatchMode::Pack,
                fused: true,
                cost,
            },
            // Some lane faulted (or failed to encode): the fused run
            // cannot attribute the fault, so replay per request — through
            // the lanes discipline, which gives the exact per-request
            // classification *and* keeps the replay parallel.
            Err(_) => BatchOutcome {
                mode: BatchMode::Pack,
                ..self.run_lanes(inputs)
            },
        }
    }

    fn run_lanes(&self, inputs: &[Value]) -> BatchOutcome {
        let b = inputs.len();
        let mut results: Vec<Option<Result<Value, EvalError>>> = (0..b).map(|_| None).collect();
        // Encode on this thread (Values are not Send); ship only the
        // plain-u64 register lanes to the workers.
        let mut idx = Vec::with_capacity(b);
        let mut lanes = Vec::with_capacity(b);
        for (i, v) in inputs.iter().enumerate() {
            match encode_arg(v, self.dom()) {
                Ok(regs) => {
                    idx.push(i);
                    lanes.push(regs);
                }
                Err(e) => results[i] = Some(Err(e)),
            }
        }
        let outs = bvram::run_lanes_rayon(
            &self.cached.single.program,
            lanes,
            self.backend == Backend::Par,
        );
        let mut cost = Cost::ZERO;
        for (i, out) in idx.into_iter().zip(outs) {
            results[i] = Some(match out {
                Ok(out) => {
                    cost = cost.par(Cost::new(out.stats.time, out.stats.work));
                    decode_result(&out.outputs, self.cod())
                }
                Err(e) => Err(eval_error_of(e)),
            });
        }
        BatchOutcome {
            results: results
                .into_iter()
                .map(|r| r.expect("every request answered"))
                .collect(),
            mode: BatchMode::Lanes,
            fused: false,
            cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsc_core::ast as a;

    fn runner(f: Func, dom: Type, backend: Backend) -> BatchRunner {
        let cache = CompiledCache::new();
        BatchRunner::from_cache(&cache, &f, &dom, OptLevel::O1, backend).unwrap()
    }

    #[test]
    fn both_modes_match_single_runs_on_clean_batches() {
        let f = a::map(a::lam(
            "x",
            a::add(a::mul(a::var("x"), a::var("x")), a::nat(1)),
        ));
        let r = runner(f, Type::seq(Type::Nat), Backend::Seq);
        let inputs: Vec<Value> = (0..9u64).map(|i| Value::nat_seq(0..i)).collect();
        let singles: Vec<_> = inputs
            .iter()
            .map(|v| r.run_single(v).map(|p| p.0))
            .collect();
        for mode in [BatchMode::Pack, BatchMode::Lanes] {
            let out = r.run_batch_mode(&inputs, mode);
            assert_eq!(out.results, singles, "{mode:?}");
            assert_eq!(out.fused, mode == BatchMode::Pack);
        }
    }

    #[test]
    fn pack_amortizes_t_prime() {
        // The whole point: a fused batch of B pays ~one T', not B.
        let f = a::map(a::lam("x", a::add(a::var("x"), a::nat(1))));
        let r = runner(f, Type::seq(Type::Nat), Backend::Seq);
        let inputs: Vec<Value> = (0..64).map(|_| Value::nat_seq(0..16)).collect();
        let mut seq_cost = Cost::ZERO;
        for v in &inputs {
            seq_cost += r.run_single(v).unwrap().1;
        }
        let packed = r.run_batch_mode(&inputs, BatchMode::Pack);
        assert!(packed.fused);
        assert!(
            packed.cost.time * 8 < seq_cost.time,
            "fused T' {} should be far below B·T' {}",
            packed.cost.time,
            seq_cost.time
        );
    }

    #[test]
    fn faulting_requests_classify_identically_in_both_modes() {
        // get(x) is Ω unless x is a singleton.
        let f = a::lam("x", a::get(a::var("x")));
        for backend in [Backend::Seq, Backend::Par] {
            let r = runner(f.clone(), Type::seq(Type::Nat), backend);
            let inputs = vec![
                Value::nat_seq([7]),
                Value::nat_seq([1, 2]), // Ω
                Value::nat_seq([9]),
                Value::nat_seq([]), // Ω
            ];
            let singles: Vec<_> = inputs
                .iter()
                .map(|v| r.run_single(v).map(|p| p.0))
                .collect();
            assert!(singles[1].is_err() && singles[3].is_err());
            for mode in [BatchMode::Pack, BatchMode::Lanes] {
                let out = r.run_batch_mode(&inputs, mode);
                assert_eq!(out.results, singles, "{backend:?}/{mode:?}");
                assert!(!out.fused, "a faulting lane forces per-request execution");
            }
        }
    }

    #[test]
    fn empty_batch() {
        let f = a::map(a::lam("x", a::var("x")));
        let r = runner(f, Type::seq(Type::Nat), Backend::Seq);
        for mode in [BatchMode::Pack, BatchMode::Lanes] {
            let out = r.run_batch_mode(&[], mode);
            assert!(out.results.is_empty());
        }
    }

    /// The rule reads program structure, never the batch: a jump-free
    /// `map(+1)` packs at every size, and one conditional or one `while`
    /// in `f` means lanes at every size.
    #[test]
    fn mode_choice_follows_program_structure() {
        let inc = a::map(a::lam("x", a::add(a::var("x"), a::nat(1))));
        let r = runner(inc, Type::seq(Type::Nat), Backend::Seq);
        assert_eq!(r.cached().mode(), BatchMode::Pack);
        let small: Vec<Value> = (0..8).map(|_| Value::nat_seq(0..4)).collect();
        let big: Vec<Value> = (0..2).map(|_| Value::nat_seq(0..1 << 16)).collect();
        for inputs in [&[][..], &small, &big] {
            assert_eq!(r.plan(inputs), BatchMode::Pack);
        }
        assert_eq!(r.run_batch(&small).mode, BatchMode::Pack);

        let branchy = a::map(a::lam(
            "x",
            a::cond(a::lt(a::var("x"), a::nat(2)), a::nat(0), a::var("x")),
        ));
        let r = runner(branchy, Type::seq(Type::Nat), Backend::Seq);
        for inputs in [&[][..], &small, &big] {
            assert_eq!(r.plan(inputs), BatchMode::Lanes);
        }
        assert_eq!(r.run_batch(&small).mode, BatchMode::Lanes);

        let halve = a::while_(
            a::lam("x", a::lt(a::nat(0), a::var("x"))),
            a::lam("x", a::rshift(a::var("x"), a::nat(1))),
        );
        let r = runner(halve, Type::Nat, Backend::Seq);
        let tiny: Vec<Value> = vec![Value::nat(1), Value::nat(2)];
        let huge: Vec<Value> = (0..512u64)
            .map(|i| Value::nat(u64::MAX >> (i % 64)))
            .collect();
        for inputs in [Vec::new(), tiny, huge] {
            assert_eq!(r.plan(&inputs), BatchMode::Lanes);
            assert_eq!(r.run_batch(&inputs).mode, BatchMode::Lanes);
        }
    }
}
