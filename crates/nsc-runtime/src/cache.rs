//! The compile-once program cache.
//!
//! Serving traffic means the same handler function is compiled once and
//! executed millions of times, so the Theorem 7.1 pipeline must run
//! exactly once per distinct `(function, opt level)` — under
//! arbitrary thread contention.  [`CompiledCache`] guarantees that: the
//! first thread to request a key runs the compiler, every concurrent
//! requester blocks on that one compilation, and everybody gets the same
//! shared [`CachedProgram`].
//!
//! Each entry holds the compiled single program and, behind it, the
//! Map-Lemma kernel:
//!
//! * `single` — the function `f : s → t` itself, for one-request runs and
//!   for the *lanes* batch mode;
//! * `batch` — the kernel `map(f) : [s] → [t]` ([`PackKernel`]), which is
//!   what the *pack* batch mode executes: one BVRAM run whose lane-offset
//!   registers carry a whole batch (see [`crate::batch`]).
//!
//! Both come straight from [`compile_nsc_with`], under its compile
//! policy: a lowering over [`nsc_compile::OPT_BUDGET`] skips the
//! optimizer, and a program that does not verify clean is a compile
//! error — so no request ever runs an unverified program.
//!
//! Each entry also fixes, once and for all, the **batching discipline**
//! its batches run under ([`CachedProgram::mode`]): pack iff both
//! programs are straight-line, a structural fact of the compiled code
//! that no request can change (see [`crate::batch`]).  The single
//! program is compiled first, and if it has a jump the entry runs lanes
//! whatever the kernel looks like, so the kernel is not compiled: only a
//! straight-line `f` compiles `map(f)` at insert.  A lanes entry's kernel
//! is compiled on first use, by a caller that forces a pack run — never
//! on the serving path.  (A `while`-heavy `map(f)` kernel runs to
//! hundreds of thousands of instructions, most of such an entry's cold
//! compile time and memory.)
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

use crate::batch::{straight_line, BatchMode};
use nsc_compile::{compile_nsc_with, Backend, Compiled, OptLevel};
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
}

impl CacheKey {
    /// The key of `f : dom` at `opt`.
    pub fn of(f: &Func, dom: &Type, opt: OptLevel) -> CacheKey {
        CacheKey {
            source: format!("{f} : {dom}"),
            opt,
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
    /// `map(f) : [s] → [t]` — the pack mode's fused kernel, compiled at
    /// insert only when `single` is straight-line.
    pub batch: PackKernel,
    /// The batching rule applied to `single` and, if `single` is
    /// straight-line, to the kernel; private so it cannot disagree with
    /// them.
    mode: BatchMode,
}

impl CachedProgram {
    /// The entry of `f : dom` at `opt` around its compiled single program
    /// `single`, with its batching discipline fixed: a `single` with a
    /// jump runs lanes and leaves the kernel uncompiled, and a
    /// straight-line one compiles the kernel now and takes
    /// [`BatchMode::of`] the two.  Fails with the kernel's compile error
    /// in the second case.
    pub fn from_single(
        f: &Func,
        dom: &Type,
        opt: OptLevel,
        single: Compiled,
    ) -> Result<CachedProgram, EvalError> {
        let batch = PackKernel::new(f, dom, opt);
        let mode = if straight_line(&single.program) {
            BatchMode::of(&single.program, &batch.get()?.program)
        } else {
            BatchMode::Lanes
        };
        Ok(CachedProgram {
            key: CacheKey::of(f, dom, opt),
            single,
            batch,
            mode,
        })
    }

    /// The discipline every batch of this entry runs under, decided
    /// once, at insert.
    pub fn mode(&self) -> BatchMode {
        self.mode
    }
}

/// The Map-Lemma kernel `map(f) : [s] → [t]` of one cache entry,
/// compiled at most once, on first use.
#[derive(Debug)]
pub struct PackKernel {
    f: Func,
    dom: Type,
    opt: OptLevel,
    compiled: OnceLock<Result<Compiled, EvalError>>,
}

impl PackKernel {
    fn new(f: &Func, dom: &Type, opt: OptLevel) -> PackKernel {
        PackKernel {
            f: f.clone(),
            dom: dom.clone(),
            opt,
            compiled: OnceLock::new(),
        }
    }

    /// The compiled kernel, compiling it on the first call (concurrent
    /// callers wait for that one compilation).  A compile error is kept
    /// and returned to every caller, like a failed cache entry's.
    pub fn get(&self) -> Result<&Compiled, EvalError> {
        self.compiled
            .get_or_init(|| {
                compile_nsc_with(
                    &ast::map(self.f.clone()),
                    &Type::seq(self.dom.clone()),
                    self.opt,
                )
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Whether the kernel has been compiled (or has failed to compile).
    pub fn is_compiled(&self) -> bool {
        self.compiled.get().is_some()
    }
}

/// [`PackKernel::get`], panicking on a compile error — kept only because
/// `bench/src/replay.rs` reads `entry.batch.program` and `bench/` is
/// frozen; ROADMAP item 1 removes it.
impl std::ops::Deref for PackKernel {
    type Target = Compiled;

    fn deref(&self) -> &Compiled {
        self.get()
            .unwrap_or_else(|e| panic!("compiling the map(f) kernel: {e}"))
    }
}

/// Observer invoked once per actual compilation (not per lookup) — lets
/// tests and metrics count compiles without reaching into the cache.
pub type CompileHook = Box<dyn Fn(&CacheKey) + Send + Sync>;

// Stored as `Arc` so the hook can be cloned out of its mutex and invoked
// after the guard drops — a hook may therefore re-enter the cache
// (pre-warm a dependent key, swap itself out) without deadlocking.
type SharedHook = Arc<dyn Fn(&CacheKey) + Send + Sync>;

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

    /// [`CompiledCache::entry`] with an unused machine argument, kept
    /// only because `bench/src/replay.rs` calls it and `bench/` is frozen;
    /// ROADMAP item 1 removes it.
    pub fn get_or_compile(
        &self,
        f: &Func,
        dom: &Type,
        opt: OptLevel,
        _: Backend,
    ) -> Result<Arc<CachedProgram>, EvalError> {
        self.entry(f, dom, opt)
    }

    /// Returns the cached entry for `(f, opt)`, compiling it on the first
    /// request ([`CachedProgram::from_single`]: the single program, and
    /// the pack kernel only if the single program is straight-line).
    /// Blocks if another thread is currently compiling the same key;
    /// never compiles a key twice — including failed compilations, whose
    /// error is cached and returned to every requester.
    pub fn entry(
        &self,
        f: &Func,
        dom: &Type,
        opt: OptLevel,
    ) -> Result<Arc<CachedProgram>, EvalError> {
        let key = CacheKey::of(f, dom, opt);
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
            let single = compile_nsc_with(f, dom, opt)?;
            CachedProgram::from_single(f, dom, opt, single).map(Arc::new)
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
    use crate::BatchRunner;
    use nsc_core::ast as a;
    use nsc_core::value::Value;

    fn inc() -> Func {
        a::map(a::lam("x", a::add(a::var("x"), a::nat(1))))
    }

    #[test]
    fn second_lookup_hits_the_cache() {
        let cache = CompiledCache::new();
        let dom = Type::seq(Type::Nat);
        let p1 = cache.entry(&inc(), &dom, OptLevel::O1).unwrap();
        let p2 = cache.entry(&inc(), &dom, OptLevel::O1).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2), "same shared entry");
        assert_eq!(cache.compiles(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn opt_level_is_part_of_the_key() {
        let cache = CompiledCache::new();
        let dom = Type::seq(Type::Nat);
        for opt in [OptLevel::O0, OptLevel::O1, OptLevel::O1] {
            cache.entry(&inc(), &dom, opt).unwrap();
        }
        assert_eq!(cache.compiles(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn failed_compilations_are_cached_once() {
        let cache = CompiledCache::new();
        // `y` is unbound: translation fails.
        let broken = a::lam("x", a::add(a::var("x"), a::var("y")));
        let e1 = cache.entry(&broken, &Type::Nat, OptLevel::O1).unwrap_err();
        let e2 = cache.entry(&broken, &Type::Nat, OptLevel::O1).unwrap_err();
        assert_eq!(e1, e2);
        assert_eq!(cache.compiles(), 1, "negative result cached");
    }

    fn halve() -> Func {
        a::while_(
            a::lam("x", a::lt(a::nat(0), a::var("x"))),
            a::lam("x", a::rshift(a::var("x"), a::nat(1))),
        )
    }

    fn singles(r: &BatchRunner, inputs: &[Value]) -> Vec<Result<Value, EvalError>> {
        inputs
            .iter()
            .map(|v| r.run_single(v).map(|p| p.0))
            .collect()
    }

    /// A program with a jump runs lanes whatever its kernel looks like,
    /// so its entry never compiles `map(f)` unless a pack run is forced;
    /// the forced run compiles it once and agrees with the single runs.
    #[test]
    fn a_lanes_entry_compiles_its_kernel_only_when_pack_is_forced() {
        let cache = CompiledCache::new();
        let r = BatchRunner::from_cache(&cache, &halve(), &Type::Nat, OptLevel::O1).unwrap();
        let entry = r.cached();
        assert_eq!(entry.mode(), BatchMode::Lanes);
        assert!(!entry.batch.is_compiled(), "compiled at insert");
        let inputs: Vec<Value> = [9, 0, 100, 3, 77, 1024].map(Value::nat).into();
        let want = singles(&r, &inputs);
        let lanes = r.run_batch(&inputs);
        assert_eq!((lanes.mode, &lanes.results), (BatchMode::Lanes, &want));
        assert!(!entry.batch.is_compiled(), "compiled by a lanes batch");

        let packed = r.run_batch_mode(&inputs, BatchMode::Pack);
        assert!(packed.fused);
        assert_eq!(packed.results, want);
        let kernel: *const Compiled = entry.batch.get().unwrap();
        r.run_batch_mode(&inputs, BatchMode::Pack);
        assert!(
            std::ptr::eq(kernel, entry.batch.get().unwrap()),
            "recompiled"
        );
        assert_eq!(cache.compiles(), 1);
    }

    #[test]
    fn a_pack_entry_holds_its_kernel_at_insert() {
        let cache = CompiledCache::new();
        let entry = cache
            .entry(&inc(), &Type::seq(Type::Nat), OptLevel::O1)
            .unwrap();
        assert_eq!(entry.mode(), BatchMode::Pack);
        assert!(entry.batch.is_compiled());
    }

    /// A kernel that fails to compile costs a lanes entry nothing: its
    /// batches run as they would anyway, and a forced pack run falls
    /// back to lanes like any fused-run fault.  (No program is known
    /// whose single program compiles and whose `map(f)` does not, so the
    /// failing kernel is `map` of a function with a free variable.)
    #[test]
    fn a_kernel_compile_error_falls_back_to_lanes() {
        let dom = Type::Nat;
        let single = compile_nsc_with(&halve(), &dom, OptLevel::O1).unwrap();
        let broken = a::lam("x", a::add(a::var("x"), a::var("y")));
        let entry = CachedProgram {
            key: CacheKey::of(&halve(), &dom, OptLevel::O1),
            single,
            batch: PackKernel::new(&broken, &dom, OptLevel::O1),
            mode: BatchMode::Lanes,
        };
        let r = BatchRunner::of(Arc::new(entry));
        let inputs: Vec<Value> = (0..5).map(|i| Value::nat(i * 37)).collect();
        let want = singles(&r, &inputs);
        assert_eq!(r.run_batch(&inputs).results, want);
        let packed = r.run_batch_mode(&inputs, BatchMode::Pack);
        assert!(!packed.fused);
        assert_eq!((packed.mode, packed.results), (BatchMode::Pack, want));
        assert!(r.cached().batch.get().is_err());
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
