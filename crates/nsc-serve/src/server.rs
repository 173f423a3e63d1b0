//! The server: function registry, shard directory, admission, drain.

use crate::shard::{ReplyFn, Shard};
use crate::{ServeError, Snapshot};
use nsc_core::parse::Module;
use nsc_core::types::Type;
use nsc_core::Func;
use nsc_runtime::CompiledCache;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Hook invoked with the batch size each time a shard flushes a batch
/// (before it executes).  Observability and test instrumentation — the
/// same role [`nsc_runtime::CompileHook`] plays for the cache.
pub type FlushHook = Arc<dyn Fn(usize) + Send + Sync>;

/// Server configuration.  A shard batches what is queued (see
/// [`crate::shard`]); the two limits here bound that, they do not time it.
#[derive(Clone)]
pub struct ServeConfig {
    /// The most requests one flush may take from the queue.  `1`
    /// disables batching.
    pub max_batch: usize,
    /// Admission queue capacity per shard; a full queue rejects with
    /// [`ServeError::Overloaded`].
    pub queue_cap: usize,
    /// Flush observer, if any.
    pub on_flush: Option<FlushHook>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_batch: 32,
            queue_cap: 1024,
            on_flush: None,
        }
    }
}

impl std::fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeConfig")
            .field("max_batch", &self.max_batch)
            .field("queue_cap", &self.queue_cap)
            .field("on_flush", &self.on_flush.as_ref().map(|_| "…"))
            .finish()
    }
}

/// The micro-batching request server.
///
/// Register functions while you hold it exclusively, then share it
/// (`Arc`) with any number of submitting threads.  Shards spin up
/// lazily, on the first request per function.
pub struct Server {
    cfg: ServeConfig,
    cache: Arc<CompiledCache>,
    fns: HashMap<String, (Func, Type)>,
    shards: Mutex<HashMap<String, Arc<Shard>>>,
    draining: AtomicBool,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("functions", &self.fns.len())
            .field("shards", &self.shards.lock().unwrap().len())
            .field("draining", &self.draining.load(Ordering::Relaxed))
            .finish()
    }
}

impl Server {
    /// An empty server (compiled programs cached in a fresh
    /// [`CompiledCache`]).
    pub fn new(cfg: ServeConfig) -> Server {
        Server::with_cache(cfg, Arc::new(CompiledCache::new()))
    }

    /// An empty server sharing an existing compiled-program cache (lets
    /// a caller pre-warm compilations, or share one cache between a
    /// server and direct [`nsc_runtime::BatchRunner`] use).
    pub fn with_cache(cfg: ServeConfig, cache: Arc<CompiledCache>) -> Server {
        Server {
            cfg,
            cache,
            fns: HashMap::new(),
            shards: Mutex::new(HashMap::new()),
            draining: AtomicBool::new(false),
        }
    }

    /// Registers `f : dom -> …` under `name`, replacing any previous
    /// registration of that name (existing shards keep serving the old
    /// definition; new shards see the new one — register before serving).
    pub fn register(&mut self, name: &str, f: &Func, dom: &Type) {
        self.fns.insert(name.to_string(), (f.clone(), dom.clone()));
    }

    /// Registers every definition of a parsed `.nsc` module that can be
    /// inlined to a pure function (the compiler's precondition).
    /// Returns the definitions that were *skipped*, with the reason —
    /// e.g. recursive definitions, which evaluate but do not compile.
    pub fn register_module(&mut self, module: &Module) -> Vec<(String, String)> {
        let mut skipped = Vec::new();
        for def in &module.defs {
            match module.inlined(&def.name) {
                Ok(pure) => self.register(&def.name, &pure, &def.dom),
                Err(e) => skipped.push((def.name.to_string(), e.to_string())),
            }
        }
        skipped
    }

    /// The registered function names, sorted.
    pub fn functions(&self) -> Vec<String> {
        let mut names: Vec<String> = self.fns.keys().cloned().collect();
        names.sort();
        names
    }

    /// The shared compiled-program cache.
    pub fn cache(&self) -> &Arc<CompiledCache> {
        &self.cache
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Submits one request: `input` is NSC value literal text for
    /// registered function `fn_name`, and `reply` is invoked exactly once
    /// from the shard when the request is answered.
    ///
    /// Returns the shard-local admission sequence number.  Errors are
    /// *synchronous* rejections (unknown function, full queue, draining
    /// server) — `reply` is dropped uncalled and the caller reports the
    /// error itself.
    pub fn submit(&self, fn_name: &str, input: String, reply: ReplyFn) -> Result<u64, ServeError> {
        if self.draining.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        let (f, dom) = self
            .fns
            .get(fn_name)
            .ok_or_else(|| ServeError::UnknownFunction(fn_name.to_string()))?;
        let shard = {
            let mut shards = self.shards.lock().unwrap();
            // Re-check under the directory lock: `drain` flips the flag
            // while holding it, so either this submit sees the flag, or
            // the shard it creates is visible to drain's collection — a
            // shard can never be spawned behind a completed drain.
            if self.draining.load(Ordering::SeqCst) {
                return Err(ServeError::ShuttingDown);
            }
            Arc::clone(shards.entry(fn_name.to_string()).or_insert_with(|| {
                Arc::new(Shard::spawn(
                    fn_name,
                    f.clone(),
                    dom.clone(),
                    &self.cfg,
                    Arc::clone(&self.cache),
                ))
            }))
        };
        shard.submit(input, reply)
    }

    /// Point-in-time metrics for every live shard, sorted by function
    /// name for stable output.
    pub fn snapshots(&self) -> Vec<Snapshot> {
        let shards = self.shards.lock().unwrap();
        let mut names: Vec<&String> = shards.keys().collect();
        names.sort();
        names.iter().map(|name| shards[*name].snapshot()).collect()
    }

    /// Graceful drain: stop admitting, let every shard answer its queued
    /// requests, and join the batcher threads.  Idempotent; subsequent
    /// [`Server::submit`]s return [`ServeError::ShuttingDown`].
    pub fn drain(&self) {
        // Flag and collect under the directory lock (a racing submit
        // either observes the flag or has already inserted its shard),
        // but join outside it so `snapshots()` is not blocked meanwhile.
        let shards: Vec<Arc<Shard>> = {
            let shards = self.shards.lock().unwrap();
            self.draining.store(true, Ordering::SeqCst);
            shards.values().cloned().collect()
        };
        for shard in shards {
            shard.drain();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsc_core::ast as a;
    use std::sync::mpsc;

    fn square_server(cfg: ServeConfig) -> Server {
        let mut s = Server::new(cfg);
        let f = a::map(a::lam(
            "x",
            a::add(a::mul(a::var("x"), a::var("x")), a::nat(1)),
        ));
        s.register("sq1", &f, &Type::seq(Type::Nat));
        s
    }

    fn collect_submit(
        server: &Server,
        fn_name: &str,
        input: &str,
    ) -> Result<Result<String, ServeError>, ServeError> {
        let (tx, rx) = mpsc::channel();
        server.submit(
            fn_name,
            input.into(),
            Box::new(move |r: crate::Reply| {
                let _ = tx.send(r.result);
            }),
        )?;
        Ok(rx.recv().expect("reply delivered"))
    }

    #[test]
    fn serves_a_request_end_to_end() {
        let server = square_server(ServeConfig::default());
        let out = collect_submit(&server, "sq1", "[0, 1, 2, 3]").unwrap();
        assert_eq!(out.unwrap(), "[1, 2, 5, 10]");
        server.drain();
        // Shards answered everything before the join returned.
        let snaps = server.snapshots();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].completed, 1);
        assert_eq!(snaps[0].queue_depth, 0);
    }

    /// A registered function reaches its shard as the AST itself, never
    /// as source text: a hand-built function whose binder (`map`, a
    /// keyword of the surface syntax) does not survive print-and-reparse
    /// is served from another thread with exactly the answer a direct
    /// single run gives.
    #[test]
    fn hand_built_function_is_served_across_threads_without_reparsing() {
        let x = || a::var("map");
        let f = a::map(a::lam("map", a::add(a::mul(x(), x()), a::nat(1))));
        let dom = Type::seq(Type::Nat);
        assert!(nsc_core::parse::parse_func(&f.to_string()).is_err());
        let mut server = Server::new(ServeConfig::default());
        server.register("sq1", &f, &dom);
        let server = Arc::new(server);
        let remote = Arc::clone(&server);
        let served = std::thread::spawn(move || collect_submit(&remote, "sq1", "[0, 1, 2, 3]"))
            .join()
            .expect("submitting thread")
            .expect("admitted")
            .expect("answered");
        let runner =
            nsc_runtime::BatchRunner::from_cache(server.cache(), &f, &dom, Default::default())
                .unwrap();
        let (direct, _) = runner
            .run_single(&nsc_core::value::Value::nat_seq(0..4))
            .unwrap();
        assert_eq!(served, direct.to_string());
        assert_eq!(
            server.cache().compiles(),
            1,
            "the shard's compile was shared"
        );
        server.drain();
    }

    #[test]
    fn classifies_request_level_errors() {
        let server = square_server(ServeConfig::default());
        let cases = [
            ("sq1", "[1, }", "parse"),
            ("sq1", "(1, 2)", "domain"),
            ("nope", "[1]", "unknown-fn"),
        ];
        for (fn_name, input, kind) in cases {
            let got = match collect_submit(&server, fn_name, input) {
                Err(e) => e,
                Ok(r) => r.unwrap_err(),
            };
            assert_eq!(got.kind(), kind, "{fn_name} {input}");
        }
        server.drain();
    }

    #[test]
    fn draining_rejects_new_requests_and_is_idempotent() {
        let server = square_server(ServeConfig::default());
        server.drain();
        server.drain();
        let e = collect_submit(&server, "sq1", "[1]").unwrap_err();
        assert_eq!(e.kind(), "shutdown");
    }

    #[test]
    fn register_module_skips_what_it_cannot_compile() {
        let src = "\
fn main : [N] -> [N] = map((\\x. (x + 1)))
input [1, 2]
";
        let module = nsc_core::parse::parse_module(src).unwrap();
        module.check().unwrap();
        let mut server = Server::new(ServeConfig::default());
        let skipped = server.register_module(&module);
        assert!(skipped.is_empty());
        assert_eq!(server.functions(), vec!["main".to_string()]);
    }
}
