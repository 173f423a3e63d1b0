//! Shared fixtures for the integration-test binaries: the one stdlib
//! roster with its input generators, and the independent references
//! ([`reference`]) the repo's analyses are checked against.
//!
//! Each test binary compiles this module independently and uses the
//! subset it needs, so unused helpers are expected, not dead code.
#![allow(dead_code)]

pub mod reference;

use nsc::core::ast as a;
use nsc::core::stdlib;
use nsc::core::types::Type;
use nsc::core::value::Value;
use nsc::core::Func;
use std::sync::OnceLock;

/// Enough stack for the deepest stdlib compilations
/// (`map(combine_flags)` and friends), mirroring `src/bin/nsc.rs`.
pub const BIG_STACK: usize = 512 * 1024 * 1024;

/// Runs `f` on a thread with [`BIG_STACK`].
pub fn on_big_stack(f: fn()) {
    std::thread::Builder::new()
        .stack_size(BIG_STACK)
        .spawn(f)
        .expect("spawn worker")
        .join()
        .expect("worker panicked");
}

/// A deterministic inhabitant of `t` whose sequences have length `n`.
/// Scalars stay small (`1..=3`) so index/take/drop-style arguments are
/// usually in range at the sweeps' sizes; runs that still fault (e.g.
/// `bm_route` with counts that don't sum to the bound) are the callers'
/// to skip.
pub fn sample(t: &Type, n: u64) -> Value {
    match t {
        Type::Unit => Value::unit(),
        Type::Nat => Value::nat(n % 3 + 1),
        Type::Prod(a, b) => Value::pair(sample(a, n), sample(b, n)),
        Type::Sum(a, b) => {
            if n.is_multiple_of(2) {
                Value::inl(sample(a, n))
            } else {
                Value::inr(sample(b, n))
            }
        }
        Type::Seq(s) => Value::seq((0..n).map(|i| sample(s, i)).collect()),
    }
}

/// Word-stream randomization (the `tests/properties.rs` idiom): proptest
/// supplies a word vector, a deterministic decoder turns it into inputs,
/// so the vendored proptest shim needs no shrinking.
pub struct Words<'a> {
    ws: &'a [u64],
    i: usize,
}

impl Words<'_> {
    pub fn new(ws: &[u64]) -> Words<'_> {
        Words { ws, i: 0 }
    }

    pub fn next(&mut self) -> u64 {
        let w = self.ws[self.i % self.ws.len()];
        self.i += 1;
        w.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(self.i as u64))
    }

    pub fn pick(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn nat_vec(w: &mut Words, max_len: u64, max: u64) -> Vec<u64> {
    let n = w.pick(max_len + 1);
    (0..n).map(|_| w.pick(max)).collect()
}

fn nat_seq(w: &mut Words, max_len: u64, max: u64) -> Value {
    Value::nat_seq(nat_vec(w, max_len, max))
}

fn pair_seq(w: &mut Words) -> Value {
    let n = w.pick(7);
    Value::seq(
        (0..n)
            .map(|_| Value::pair(Value::nat(w.pick(50)), Value::nat(w.pick(50))))
            .collect(),
    )
}

fn sum_elem_seq(w: &mut Words) -> Value {
    let n = w.pick(7);
    Value::seq(
        (0..n)
            .map(|_| {
                if w.pick(2) == 0 {
                    Value::inl(Value::nat(w.pick(50)))
                } else {
                    Value::inr(Value::nat(w.pick(50)))
                }
            })
            .collect(),
    )
}

/// A sequence and an ascending, mostly-valid index sequence into it
/// (deliberately out of range once in a while).
fn seq_and_indices(w: &mut Words) -> Value {
    let c = nat_vec(w, 6, 90);
    let n = c.len() as u64;
    let k = w.pick(n + 2);
    let mut i: Vec<u64> = (0..k).map(|_| w.pick(n.max(1) + 1)).collect();
    i.sort_unstable();
    i.dedup();
    Value::pair(Value::nat_seq(c), Value::nat_seq(i))
}

/// A sequence and a position in it, one or two past the end sometimes
/// (`Ω` for `nth`).
fn seq_and_position(w: &mut Words) -> Value {
    let xs = nat_vec(w, 6, 90);
    let m = w.pick(xs.len() as u64 + 2);
    Value::pair(Value::nat_seq(xs), Value::nat(m))
}

/// One runnable stdlib function, as every roster sweep sees it.
pub struct Subject {
    /// The stdlib function's name.
    pub name: &'static str,
    /// The function, closed over its arguments.
    pub f: Func,
    /// Its domain.
    pub dom: Type,
    /// Draws one input, mixing valid shapes with `Ω`- and
    /// fault-triggering ones (empty sequences, out-of-range indices,
    /// inconsistent routing counts).
    pub gen: fn(&mut Words) -> Value,
}

fn subject(name: &'static str, f: Func, dom: Type, gen: fn(&mut Words) -> Value) -> Subject {
    Subject { name, f, dom, gen }
}

/// The stdlib roster: every function `nsc_core::stdlib` re-exports
/// except the `util` helpers `app2` and `lam2`, in one fixed order.  The
/// only list of its kind — every sweep over "the stdlib" reads it, and
/// `roster_is_exhaustive` in `tests/roster` keeps it complete.
///
/// Built once per process: the stdlib builders name their binders from a
/// per-thread counter, so a second build would be alpha-equivalent but
/// print — and key a program cache — differently.
pub fn roster() -> &'static [Subject] {
    static ROSTER: OnceLock<Vec<Subject>> = OnceLock::new();
    ROSTER.get_or_init(build_roster)
}

fn build_roster() -> Vec<Subject> {
    let nn = Type::prod(Type::Nat, Type::Nat);
    let seq_n = Type::seq(Type::Nat);
    let n = &Type::Nat;
    let x = || a::var("x");
    let (p1, p2) = (|| a::fst(a::var("p")), || a::snd(a::var("p")));
    let gt0 = a::lam("p0", a::lt(a::nat(0), a::var("p0")));
    vec![
        subject("pi1", stdlib::pi1(), Type::seq(nn.clone()), pair_seq),
        subject("pi2", stdlib::pi2(), Type::seq(nn), pair_seq),
        subject(
            "broadcast",
            stdlib::broadcast(),
            Type::prod(Type::Nat, seq_n.clone()),
            |w| Value::pair(Value::nat(w.pick(90)), nat_seq(w, 6, 50)),
        ),
        subject(
            "sigma1",
            stdlib::sigma1(n),
            Type::seq(Type::sum(Type::Nat, Type::Nat)),
            sum_elem_seq,
        ),
        subject(
            "sigma2",
            stdlib::sigma2(n),
            Type::seq(Type::sum(Type::Nat, Type::Nat)),
            sum_elem_seq,
        ),
        subject("filter", stdlib::filter(gt0, n), seq_n.clone(), |w| {
            nat_seq(w, 8, 5)
        }),
        subject(
            "index",
            a::lam("p", stdlib::index(p1(), p2(), n)),
            Type::prod(seq_n.clone(), seq_n.clone()),
            seq_and_indices,
        ),
        subject(
            "index_split",
            a::lam("p", stdlib::index_split(p1(), p2())),
            Type::prod(seq_n.clone(), seq_n.clone()),
            seq_and_indices,
        ),
        subject(
            "nth",
            a::lam("p", stdlib::nth(p1(), p2(), n)),
            Type::prod(seq_n.clone(), Type::Nat),
            seq_and_position,
        ),
        subject(
            "take",
            a::lam("p", stdlib::take(p1(), p2(), n)),
            Type::prod(seq_n.clone(), Type::Nat),
            seq_and_position,
        ),
        subject(
            "drop",
            a::lam("p", stdlib::drop(p1(), p2(), n)),
            Type::prod(seq_n.clone(), Type::Nat),
            seq_and_position,
        ),
        // Empty inputs are `Ω` for `first` and `last`.
        subject(
            "first",
            a::lam("x", stdlib::first(x(), n)),
            seq_n.clone(),
            |w| nat_seq(w, 4, 90),
        ),
        subject(
            "last",
            a::lam("x", stdlib::last(x(), n)),
            seq_n.clone(),
            |w| nat_seq(w, 4, 90),
        ),
        subject(
            "tail",
            a::lam("x", stdlib::tail(x(), n)),
            seq_n.clone(),
            |w| nat_seq(w, 4, 90),
        ),
        subject(
            "remove_last",
            a::lam("x", stdlib::remove_last(x(), n)),
            seq_n.clone(),
            |w| nat_seq(w, 4, 90),
        ),
        subject(
            "isqrt_pow2",
            a::lam("x", stdlib::isqrt_pow2(x())),
            Type::Nat,
            |w| Value::nat(w.pick(1 << 12)),
        ),
        // The reductions are `while` loops whose pack kernels do heavy
        // segmented staging: tiny inputs exercise semantics, not the
        // interpreter's patience.
        subject(
            "sum_seq",
            a::lam("x", stdlib::sum_seq(x())),
            seq_n.clone(),
            |w| nat_seq(w, 4, 16),
        ),
        subject(
            "maximum",
            a::lam("x", stdlib::maximum(x())),
            seq_n.clone(),
            |w| nat_seq(w, 4, 16),
        ),
        subject(
            "prefix_sum",
            a::lam("x", stdlib::prefix_sum(x())),
            seq_n.clone(),
            |w| nat_seq(w, 4, 16),
        ),
        subject(
            "bm_route",
            a::lam("p", stdlib::bm_route(a::fst(p1()), a::snd(p1()), p2())),
            Type::prod(Type::prod(seq_n.clone(), seq_n.clone()), seq_n.clone()),
            |w| {
                let x = nat_vec(w, 4, 90);
                let d: Vec<u64> = x.iter().map(|_| w.pick(3)).collect();
                let mut total: u64 = d.iter().sum();
                if w.pick(5) == 0 {
                    total += 1; // break Σd = |u| sometimes (error path)
                }
                let u: Vec<u64> = (0..total).collect();
                Value::pair(
                    Value::pair(Value::nat_seq(u), Value::nat_seq(d)),
                    Value::nat_seq(x),
                )
            },
        ),
        subject(
            "m_route",
            a::lam("p", stdlib::m_route(p1(), p2())),
            Type::prod(seq_n.clone(), seq_n.clone()),
            |w| {
                let x = nat_vec(w, 3, 16);
                let d: Vec<u64> = x.iter().map(|_| w.pick(3)).collect();
                Value::pair(Value::nat_seq(d), Value::nat_seq(x))
            },
        ),
        subject(
            "combine_flags",
            a::lam(
                "p",
                stdlib::combine_flags(p1(), a::fst(p2()), a::snd(p2()), n),
            ),
            Type::prod(Type::seq(Type::bool_()), Type::prod(seq_n.clone(), seq_n)),
            |w| {
                let flags: Vec<bool> = (0..w.pick(5)).map(|_| w.pick(2) == 1).collect();
                let mut t = flags.iter().filter(|b| **b).count() as u64;
                let mut f = flags.len() as u64 - t;
                if w.pick(5) == 0 {
                    t += 1; // wrong payload length sometimes (error path)
                }
                if w.pick(5) == 0 {
                    f += 1;
                }
                Value::pair(
                    Value::seq(flags.iter().map(|b| Value::bool_(*b)).collect()),
                    Value::pair(
                        Value::nat_seq((0..t).map(|i| i * 3)),
                        Value::nat_seq((0..f).map(|i| 100 + i)),
                    ),
                )
            },
        ),
    ]
}
