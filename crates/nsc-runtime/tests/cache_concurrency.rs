//! `CompiledCache` under contention: N threads requesting the same key
//! must trigger exactly one compilation (counted through the injected
//! compile hook *and* the cache's own counter) and must all observe the
//! very same shared `CachedProgram`.

use nsc_compile::OptLevel;
use nsc_core::ast as a;
use nsc_core::types::Type;
use nsc_core::value::Value;
use nsc_runtime::{BatchRunner, CompiledCache};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

/// The contended function.  Fixed variable names (no gensym): the cache
/// key is the printed source, and every thread must produce the same one.
fn handler() -> nsc_core::Func {
    a::map(a::lam(
        "x",
        a::add(a::mul(a::var("x"), a::var("x")), a::nat(1)),
    ))
}

#[test]
fn n_threads_compile_exactly_once_and_share_the_program() {
    const THREADS: usize = 16;
    let cache = Arc::new(CompiledCache::new());
    let hook_count = Arc::new(AtomicUsize::new(0));
    {
        let hook_count = Arc::clone(&hook_count);
        cache.set_compile_hook(Box::new(move |key| {
            hook_count.fetch_add(1, Ordering::SeqCst);
            assert_eq!(key.opt, OptLevel::O1);
        }));
    }
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let cache = Arc::clone(&cache);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                // Each thread builds its own AST (Func is thread-local by
                // construction) — same source, same key.
                let f = handler();
                let dom = Type::seq(Type::Nat);
                barrier.wait(); // maximal contention on the cold key
                let entry = cache.entry(&f, &dom, OptLevel::O1).expect("compiles");
                // Prove the entry is actually runnable from this thread.
                let runner = BatchRunner::of(Arc::clone(&entry));
                let arg = Value::nat_seq(0..4 + t as u64);
                let (got, _) = runner.run_single(&arg).unwrap();
                let (want, _) = nsc_core::eval::apply_func(&handler(), arg).unwrap();
                assert_eq!(got, want);
                entry
            })
        })
        .collect();
    let entries: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    assert_eq!(
        hook_count.load(Ordering::SeqCst),
        1,
        "{THREADS} threads must trigger exactly one compilation"
    );
    assert_eq!(cache.compiles(), 1);
    assert_eq!(cache.len(), 1);
    for e in &entries[1..] {
        assert!(
            Arc::ptr_eq(&entries[0], e),
            "every thread must observe the same shared Program"
        );
    }
}

#[test]
fn distinct_keys_compile_independently_under_contention() {
    const THREADS: usize = 12;
    let cache = Arc::new(CompiledCache::new());
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let cache = Arc::clone(&cache);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                // Three distinct keys spread over the threads.
                let (f, opt) = match t % 3 {
                    0 => (handler(), OptLevel::O1),
                    1 => (handler(), OptLevel::O0),
                    _ => (
                        a::map(a::lam("x", a::add(a::var("x"), a::nat(1)))),
                        OptLevel::O1,
                    ),
                };
                barrier.wait();
                cache
                    .entry(&f, &Type::seq(Type::Nat), opt)
                    .expect("compiles")
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(cache.compiles(), 3, "one compilation per distinct key");
    assert_eq!(cache.len(), 3);
}
