//! Every sweep over what the repo compiles — the stdlib roster
//! (`common::roster`), the workload suite (`workloads::suite`) and the
//! five golden examples (`workloads::goldens`) — in one test binary over
//! one shared [`CompiledCache`].  Each `(function, domain, opt level)` is
//! compiled once per test run, before the first sweep reads the cache;
//! every sweep reads the same entries, so the batch and serving sweeps
//! run the very programs the verification sweeps checked.
//!
//! One module per property, named after the binary its tests came from
//! (`registers` began here).
//! Tests that compile nothing from these lists (fuzz programs, mutations,
//! hand-built CFGs, the TCP and protocol properties) stay in their own
//! binaries.  The compiler recurses with program depth, so every sweep
//! runs on a big-stack worker (`common::on_big_stack`), like the `nsc`
//! CLI driver.

#[path = "../common/mod.rs"]
mod common;

mod batch_equiv;
mod batch_rule;
mod cfg_reference;
mod cost_soundness;
mod registers;
mod serve_equiv;
mod static_verify;

use nsc::compile::OptLevel;
use nsc::core::parse::parse_value;
use nsc::core::{Func, Type, Value};
use nsc::runtime::{workloads, CachedProgram, CompiledCache};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// `workloads::suite()`, built once (see `common::roster`).
fn suite() -> &'static [(&'static str, Func)] {
    static SUITE: OnceLock<Vec<(&'static str, Func)>> = OnceLock::new();
    SUITE.get_or_init(workloads::suite)
}

/// `workloads::goldens()`, read and inlined once (see `common::roster`);
/// the inputs are kept printed, since a `Value` cannot be shared between
/// threads.
fn goldens() -> Vec<(&'static str, &'static Func, &'static Type, Value)> {
    static GOLDENS: OnceLock<Vec<(&'static str, Func, Type, String)>> = OnceLock::new();
    let goldens = GOLDENS.get_or_init(|| {
        let goldens = workloads::goldens().into_iter();
        goldens
            .map(|(n, f, d, v)| (n, f, d, v.to_string()))
            .collect()
    });
    let input = |v: &String| parse_value(v).expect("a printed value parses");
    goldens
        .iter()
        .map(|(n, f, d, v)| (*n, f, d, input(v)))
        .collect()
}

/// The cache every sweep reads, filled on first use with every roster
/// and golden entry at `O0` and `O1` (the opt level is part of the key)
/// and every workload-suite entry at `O1`, each with its `map(f)` kernel
/// compiled.  The compilations are shared out over big-stack workers, one
/// per core, largest first; a sweep that asked meanwhile waits for the
/// whole cache.
fn cache() -> &'static Arc<CompiledCache> {
    static CACHE: OnceLock<Arc<CompiledCache>> = OnceLock::new();
    CACHE.get_or_init(|| {
        let seq_n = Type::seq(Type::Nat);
        // The roster ends with its largest kernels.
        let roster = common::roster()
            .iter()
            .rev()
            .map(|s| (s.name, &s.f, &s.dom));
        let goldens = goldens().into_iter().map(|(n, f, d, _)| (n, f, d));
        // No sweep reads the workload suite at `O0`.
        let suite = suite().iter().map(|(n, f)| ((*n, f, &seq_n), OptLevel::O1));
        let jobs: Vec<_> = roster
            .chain(goldens)
            .flat_map(|p| [(p, OptLevel::O0), (p, OptLevel::O1)])
            .chain(suite)
            .collect();
        let cache = Arc::new(CompiledCache::new());
        let next = AtomicUsize::new(0);
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        std::thread::scope(|s| {
            for _ in 0..workers {
                std::thread::Builder::new()
                    .stack_size(common::BIG_STACK)
                    .spawn_scoped(s, || {
                        while let Some(&((name, f, dom), opt)) =
                            jobs.get(next.fetch_add(1, Ordering::Relaxed))
                        {
                            // The sweeps force every kernel, lanes
                            // entries' too: compile them here, in parallel.
                            let built = cache.entry(f, dom, opt);
                            if let Err(e) = built.and_then(|p| p.batch.get().map(|_| ())) {
                                panic!("compiling {name} at {opt:?}: {e}");
                            }
                        }
                    })
                    .expect("spawn compile worker");
            }
        });
        // Every sweep reads what was built here; a key built later would
        // be a second compilation of an alpha-variant.
        cache.set_compile_hook(Box::new(|key| {
            let head: String = key.source.chars().take(80).collect();
            panic!("{head}… at {:?} missed the shared cache", key.opt)
        }));
        cache
    })
}

/// The shared entry of `f : dom` at `opt`.
fn entry(name: &str, f: &Func, dom: &Type, opt: OptLevel) -> Arc<CachedProgram> {
    cache()
        .entry(f, dom, opt)
        .unwrap_or_else(|e| panic!("compiling {name} at {opt:?}: {e}"))
}

/// Models `surface_syntax::golden_list_is_exhaustive`: the roster names
/// exactly the functions `nsc_core::stdlib` re-exports, less the `util`
/// helpers `app2` and `lam2`, so a new stdlib function cannot silently
/// skip every sweep.
#[test]
fn roster_is_exhaustive() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/nsc-core/src/stdlib/mod.rs"
    );
    let src = std::fs::read_to_string(path).expect("stdlib/mod.rs");
    let mut exported: Vec<&str> = src
        .lines()
        .filter_map(|l| {
            l.strip_prefix("pub use ")?
                .split_once('{')?
                .1
                .split_once('}')
        })
        .flat_map(|(names, _)| names.split(','))
        .map(str::trim)
        .filter(|n| !["", "app2", "lam2"].contains(n))
        .collect();
    exported.sort_unstable();
    let mut names: Vec<&str> = common::roster().iter().map(|s| s.name).collect();
    names.sort_unstable();
    assert_eq!(
        names, exported,
        "common::roster() and the stdlib's re-exports disagree; update both together"
    );
}
