//! The compile-once program cache.
//!
//! Serving traffic means the same handler function is compiled once and
//! executed millions of times, so the Theorem 7.1 pipeline must run
//! exactly once per distinct `(function, opt level, backend)` — under
//! arbitrary thread contention.  [`CompiledCache`] guarantees that: the
//! first thread to request a key runs the compiler, every concurrent
//! requester blocks on that one compilation, and everybody gets the same
//! shared [`CachedProgram`].
//!
//! Each entry holds **two** compiled programs:
//!
//! * `single` — the function `f : s → t` itself, for one-request runs and
//!   for the *lanes* batch mode;
//! * `batch` — the Map-Lemma kernel `map(f) : [s] → [t]`, which is what
//!   the *pack* batch mode executes: one BVRAM run whose lane-offset
//!   registers carry a whole batch (see [`crate::batch`]).  Kernels
//!   larger than [`KERNEL_OPT_BUDGET`] skip the optimizer — a
//!   compile-latency guard, not a semantic switch.
//!
//! Each entry also fixes, once and for all, the **batching discipline**
//! its batches run under ([`CachedProgram::mode`]): pack iff both
//! programs are straight-line, a structural fact of the compiled code
//! that no request can change (see [`crate::batch`]).
//!
//! No **symbolic cost certificate** ([`bvram::cost`]) is derived here:
//! nothing on the serving path reads one, and the analysis is most of a
//! loop-heavy program's cold-compile time.  Its consumers — the
//! optimizer's no-regression gate, `nsc cost`, the superlinear lint —
//! each derive it on demand from the program.
//!
//! Compilation failures are cached too (negative caching): a function
//! that does not compile is not retried per request.
//!
//! ### Keying
//!
//! The function component of the key is the pretty-printed source
//! (`parse(pretty(f)) == f` holds by the surface-syntax round-trip
//! property, so printing is a faithful structural key).  Two
//! alpha-equivalent functions with *different variable names* are
//! distinct keys — callers that generate fresh names per request should
//! normalize first or reuse the built AST.

use crate::batch::BatchMode;
use bvram::{verify_program, Program};
use nsc_compile::{
    compile_nsc_opts, compile_nsc_with, optimize_checked, Backend, Compiled, OptLevel, VerifyLevel,
};
use nsc_core::ast;
use nsc_core::error::EvalError;
use nsc_core::types::Type;
use nsc_core::Func;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// What a cache entry is keyed by.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Pretty-printed `f : dom` (a faithful structural key by the parser
    /// round-trip property).
    pub source: String,
    /// Optimization level the programs were compiled at.
    pub opt: OptLevel,
    /// Backend the entry serves (the program text is backend-independent,
    /// but serving systems tune and account per backend, so entries are
    /// kept distinct).
    pub backend: Backend,
}

impl CacheKey {
    fn of(f: &Func, dom: &Type, opt: OptLevel, backend: Backend) -> CacheKey {
        CacheKey {
            source: format!("{f} : {dom}"),
            opt,
            backend,
        }
    }
}

/// A cache entry: the single-request program and the batch (pack) kernel.
#[derive(Debug)]
pub struct CachedProgram {
    /// The key this entry was compiled for.
    pub key: CacheKey,
    /// `f : s → t` — single runs and the lanes mode.
    pub single: Compiled,
    /// `map(f) : [s] → [t]` — the pack mode's fused kernel.
    pub batch: Compiled,
    /// [`BatchMode::of`] the two programs; private so it cannot disagree
    /// with them.
    mode: BatchMode,
}

impl CachedProgram {
    /// Assembles an entry, fixing its batching discipline from the two
    /// programs' structure.
    pub fn new(key: CacheKey, single: Compiled, batch: Compiled) -> CachedProgram {
        let mode = BatchMode::of(&single.program, &batch.program);
        CachedProgram {
            key,
            single,
            batch,
            mode,
        }
    }

    /// The discipline every batch of this entry runs under, decided
    /// once, at insert.
    pub fn mode(&self) -> BatchMode {
        self.mode
    }
}

/// Observer invoked once per actual compilation (not per lookup) — lets
/// tests and metrics count compiles without reaching into the cache.
pub type CompileHook = Box<dyn Fn(&CacheKey) + Send + Sync>;

// Stored as `Arc` so the hook can be cloned out of its mutex and invoked
// after the guard drops — a hook may therefore re-enter the cache
// (pre-warm a dependent key, swap itself out) without deadlocking.
type SharedHook = Arc<dyn Fn(&CacheKey) + Send + Sync>;

/// Pack kernels above this instruction count ship **unoptimized**.
///
/// Flattening `map(f)` multiplies program size (a `while`-heavy stdlib
/// function's kernel reaches millions of instructions), and the
/// optimizer's pass pipeline walks the program several times per round —
/// seconds of compile latency for a constant-factor run-time win that a
/// serving path cannot amortize on first request.  The *single-request*
/// program is always optimized at the requested level; only an oversized
/// batch kernel skips the pipeline.  Measured with the `ctime`
/// methodology behind `exp_batch`: at this budget every golden-example
/// kernel stays optimized — the largest (`dot_product`, ~745k
/// instructions at `O0`) optimizes in about a second with the
/// cross-block passes enabled, shrinking to ~48% of its unoptimized
/// size — while the multi-million-instruction `while`-heavy stdlib
/// kernels (which pack loses on anyway) still skip the pipeline.
pub const KERNEL_OPT_BUDGET: usize = 1 << 20;

/// Verifies a program once at cache insert, before any request can run
/// it: no structural violations, no use-before-def, no path off the end
/// ([`bvram::verify::Report::clean`]), whatever its size.
fn verify_artifact(what: &str, program: &Program) -> Result<(), EvalError> {
    let report = verify_program(program);
    if !report.clean() {
        return Err(EvalError::MachineFault(format!(
            "{what} program failed verification at cache insert:\n{report}"
        )));
    }
    Ok(())
}

type Entry = Arc<OnceLock<Result<Arc<CachedProgram>, EvalError>>>;

/// A thread-safe compile-once cache over the Theorem 7.1 pipeline.
#[derive(Default)]
pub struct CompiledCache {
    map: Mutex<HashMap<CacheKey, Entry>>,
    compiles: AtomicUsize,
    hook: Mutex<Option<SharedHook>>,
}

impl CompiledCache {
    /// An empty cache.
    pub fn new() -> CompiledCache {
        CompiledCache::default()
    }

    /// Installs `hook`, called exactly once per actual compilation (under
    /// no lock the caller can observe, so a hook may re-enter the cache),
    /// replacing any previous hook.
    pub fn set_compile_hook(&self, hook: CompileHook) {
        *self.hook.lock().unwrap() = Some(Arc::from(hook));
    }

    /// How many compilations have actually run (cache misses).
    pub fn compiles(&self) -> usize {
        self.compiles.load(Ordering::SeqCst)
    }

    /// Number of cached keys (including negatively cached failures).
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the cached entry for `(f, opt, backend)`, compiling *both*
    /// programs (single and pack kernel) on the first request.  Blocks if
    /// another thread is currently compiling the same key; never compiles
    /// a key twice — including failed compilations, whose error is cached
    /// and returned to every requester.
    pub fn get_or_compile(
        &self,
        f: &Func,
        dom: &Type,
        opt: OptLevel,
        backend: Backend,
    ) -> Result<Arc<CachedProgram>, EvalError> {
        let key = CacheKey::of(f, dom, opt, backend);
        let cell = {
            let mut map = self.map.lock().unwrap();
            map.entry(key.clone()).or_default().clone()
        };
        // The map lock is released before compiling: a slow compilation
        // of one key never blocks lookups of other keys.  OnceLock makes
        // concurrent initializers of the *same* key block until the
        // winner finishes, which is exactly the compile-once contract.
        cell.get_or_init(|| {
            self.compiles.fetch_add(1, Ordering::SeqCst);
            // Clone the hook out and drop the guard before invoking it:
            // a re-entrant hook must not deadlock on the hook mutex.
            let hook = self.hook.lock().unwrap().clone();
            if let Some(h) = hook {
                h(&key);
            }
            let compiled: Result<(Compiled, Compiled), EvalError> = (|| {
                let single = compile_nsc_with(f, dom, opt)?;
                // The kernel is lowered fused but unoptimized first so
                // its size can gate the optimizer (see
                // KERNEL_OPT_BUDGET).  Fusion follows the requested opt
                // level (off at O0), exactly like the single program's
                // pipeline.
                let k0 = compile_nsc_opts(
                    &ast::map(f.clone()),
                    &Type::seq(dom.clone()),
                    OptLevel::O0,
                    VerifyLevel::from_env(),
                    opt != OptLevel::O0,
                )?;
                let kernel = if opt != OptLevel::O0 && k0.program.instrs.len() <= KERNEL_OPT_BUDGET
                {
                    // Kernel optimization honors `NSC_VERIFY` the same
                    // way `compile_nsc` does: per-pass translation
                    // validation, with the failing pass named.
                    let p = optimize_checked(k0.program, opt, VerifyLevel::from_env(), "codegen")
                        .map_err(|e| EvalError::MachineFault(e.to_string()))?;
                    let mut c = Compiled::from_parts(p, k0.dom, k0.cod);
                    c.fused_stages = k0.fused_stages;
                    c
                } else {
                    k0
                };
                verify_artifact("single", &single.program)?;
                verify_artifact("batch kernel", &kernel.program)?;
                Ok((single, kernel))
            })();
            compiled
                .map(|(single, kernel)| Arc::new(CachedProgram::new(key.clone(), single, kernel)))
        })
        .clone()
    }
}

impl std::fmt::Debug for CompiledCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledCache")
            .field("len", &self.len())
            .field("compiles", &self.compiles())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsc_core::ast as a;

    fn inc() -> Func {
        a::map(a::lam("x", a::add(a::var("x"), a::nat(1))))
    }

    #[test]
    fn second_lookup_hits_the_cache() {
        let cache = CompiledCache::new();
        let dom = Type::seq(Type::Nat);
        let p1 = cache
            .get_or_compile(&inc(), &dom, OptLevel::O1, Backend::Seq)
            .unwrap();
        let p2 = cache
            .get_or_compile(&inc(), &dom, OptLevel::O1, Backend::Seq)
            .unwrap();
        assert!(Arc::ptr_eq(&p1, &p2), "same shared entry");
        assert_eq!(cache.compiles(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn opt_level_and_backend_are_part_of_the_key() {
        let cache = CompiledCache::new();
        let dom = Type::seq(Type::Nat);
        for (opt, backend) in [
            (OptLevel::O0, Backend::Seq),
            (OptLevel::O1, Backend::Seq),
            (OptLevel::O1, Backend::Par),
        ] {
            cache.get_or_compile(&inc(), &dom, opt, backend).unwrap();
        }
        assert_eq!(cache.compiles(), 3);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn failed_compilations_are_cached_once() {
        let cache = CompiledCache::new();
        // `y` is unbound: translation fails.
        let broken = a::lam("x", a::add(a::var("x"), a::var("y")));
        let e1 = cache
            .get_or_compile(&broken, &Type::Nat, OptLevel::O1, Backend::Seq)
            .unwrap_err();
        let e2 = cache
            .get_or_compile(&broken, &Type::Nat, OptLevel::O1, Backend::Seq)
            .unwrap_err();
        assert_eq!(e1, e2);
        assert_eq!(cache.compiles(), 1, "negative result cached");
    }

    #[test]
    fn kernel_optimization_respects_the_size_budget() {
        // Compiling while-loop kernels recurses with program depth; give
        // the test the same roomy stack the CLI driver uses.
        std::thread::Builder::new()
            .stack_size(256 * 1024 * 1024)
            .spawn(kernel_budget_body)
            .unwrap()
            .join()
            .unwrap();
    }

    fn kernel_budget_body() {
        let cache = CompiledCache::new();
        let dom = Type::seq(Type::Nat);
        // Tiny scalar-map kernel: the optimizer runs (registers shrink
        // vs the unoptimized lowering).
        let entry = cache
            .get_or_compile(&inc(), &dom, OptLevel::O1, Backend::Seq)
            .unwrap();
        let k0 = compile_nsc_with(&ast::map(inc()), &Type::seq(dom.clone()), OptLevel::O0).unwrap();
        assert!(entry.batch.program.instrs.len() < k0.program.instrs.len());
        assert!(entry.batch.program.instrs.len() <= KERNEL_OPT_BUDGET);

        // A while-loop kernel blows past the budget and ships unoptimized
        // (identical to its O0 lowering).
        let f = a::lam("x", nsc_core::stdlib::numeric::sum_seq(a::var("x")));
        let entry = cache
            .get_or_compile(&f, &dom, OptLevel::O1, Backend::Seq)
            .unwrap();
        let k0 = compile_nsc_with(&ast::map(f), &Type::seq(dom), OptLevel::O0).unwrap();
        assert!(
            k0.program.instrs.len() > KERNEL_OPT_BUDGET,
            "workload choice"
        );
        assert_eq!(entry.batch.program.instrs.len(), k0.program.instrs.len());
        // The single-request program is optimized regardless.
        let s0 = compile_nsc_with(
            &a::lam("x", nsc_core::stdlib::numeric::sum_seq(a::var("x"))),
            &Type::seq(Type::Nat),
            OptLevel::O0,
        )
        .unwrap();
        assert!(entry.single.program.instrs.len() < s0.program.instrs.len());
    }

    /// The core types are `Arc`-based, so everything the serving layers
    /// share or hand across threads is `Send + Sync` as it is — no
    /// thread-portable mirror types.  (`ServeError` is covered next to
    /// its definition in `nsc-serve`.)
    #[test]
    fn entry_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Type>();
        assert_send_sync::<ast::Term>();
        assert_send_sync::<Func>();
        assert_send_sync::<EvalError>();
        assert_send_sync::<Compiled>();
        assert_send_sync::<CachedProgram>();
        assert_send_sync::<CompiledCache>();
        assert_send_sync::<crate::BatchRunner>();
    }
}
