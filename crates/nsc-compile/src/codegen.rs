//! SA → BVRAM code generation (one direction of Proposition 7.5).
//!
//! Every SA combinator lowers to a short, fixed block of BVRAM
//! instructions over the register layout of [`crate::layout`]:
//!
//! * scalar `map(φ)` unrolls into elementwise arithmetic over the field
//!   registers (scalar `case` becomes branch-free select arithmetic
//!   `tag·f + (1−tag)·g`, the classic SIMD masking trick);
//! * flat sums dispatch with `σ` + `if empty?` on the singleton tag
//!   register; `Ω` compiles to a deliberate division fault;
//! * `σᵢ` packs each field through `Select` with the `+1` shift so genuine
//!   zeros survive;
//! * `while` and the derived `prefix_sum` become labelled jump loops.
//!
//! Register allocation is static: the register count depends only on the
//! *program*, never on the input — the defining property of the BVRAM
//! ("a fixed number of vector registers"), and the reason Theorem 7.1's
//! register count is independent of ε.

use crate::layout::{reg_count, scalar_fields, PAD};
use bvram::{Builder, Instr, Op, Program, Reg, TripBound};
use nsc_algebra::sa::scalar::Scalar;
use nsc_algebra::sa::Sa;
use nsc_algebra::trip::{Step, Trip};
use nsc_core::ast::{ArithOp, CmpOp};
use nsc_core::error::EvalError as E;
use nsc_core::types::Type;

fn stuck(m: &'static str) -> E {
    E::Stuck(m)
}

fn op_of(a: ArithOp) -> Op {
    match a {
        ArithOp::Add => Op::Add,
        ArithOp::Monus => Op::Monus,
        ArithOp::Mul => Op::Mul,
        ArithOp::Div => Op::Div,
        ArithOp::Mod => Op::Mod,
        ArithOp::Rshift => Op::Rshift,
        ArithOp::Lshift => Op::Lshift,
        ArithOp::Min => Op::Min,
        ArithOp::Max => Op::Max,
        ArithOp::Log2 => Op::Log2,
    }
}

fn cmp_of(c: CmpOp) -> Op {
    match c {
        CmpOp::Eq => Op::Eq,
        CmpOp::Le => Op::Le,
        CmpOp::Lt => Op::Lt,
    }
}

/// Code generator state.
struct Gen {
    b: Builder,
    next_reg: u32,
    next_label: u32,
}

impl Gen {
    fn alloc(&mut self) -> Reg {
        let r = self.next_reg;
        self.next_reg += 1;
        r as Reg
    }

    fn label(&mut self, prefix: &str) -> String {
        let n = self.next_label;
        self.next_label += 1;
        format!("{prefix}_{n}")
    }

    fn emit(&mut self, i: Instr) {
        self.b.push(i);
    }

    /// A fresh register holding `val` replicated to the length of `like`.
    fn fill_like(&mut self, like: Reg, val: u64) -> Reg {
        let len = self.alloc();
        let single = self.alloc();
        let out = self.alloc();
        self.emit(Instr::Length {
            dst: len,
            src: like,
        });
        self.emit(Instr::Singleton {
            dst: single,
            n: val,
        });
        self.emit(Instr::BmRoute {
            dst: out,
            bound: like,
            counts: len,
            values: single,
        });
        out
    }

    /// Packs `field` by a 0/1 `mask` (the `+1` shift keeps real zeros).
    fn pack_by_mask(&mut self, field: Reg, mask: Reg) -> Reg {
        let ones = self.fill_like(field, 1);
        let shifted = self.alloc();
        let masked = self.alloc();
        let packed = self.alloc();
        self.emit(Instr::Arith {
            dst: shifted,
            op: Op::Add,
            a: field,
            b: ones,
        });
        self.emit(Instr::Arith {
            dst: masked,
            op: Op::Mul,
            a: shifted,
            b: mask,
        });
        self.emit(Instr::Select {
            dst: packed,
            src: masked,
        });
        let ones2 = self.fill_like(packed, 1);
        let out = self.alloc();
        self.emit(Instr::Arith {
            dst: out,
            op: Op::Monus,
            a: packed,
            b: ones2,
        });
        out
    }

    /// `take`-like: keep the first `m` elements of each field (`m` a
    /// singleton register); used by the prefix-sum loop.
    fn take_prefix(&mut self, field: Reg, m: Reg) -> Reg {
        let e = self.alloc();
        self.emit(Instr::Enumerate { dst: e, src: field });
        let len = self.alloc();
        self.emit(Instr::Length {
            dst: len,
            src: field,
        });
        let bcast = self.alloc();
        self.emit(Instr::BmRoute {
            dst: bcast,
            bound: field,
            counts: len,
            values: m,
        });
        let keep = self.alloc();
        self.emit(Instr::Arith {
            dst: keep,
            op: Op::Lt,
            a: e,
            b: bcast,
        });
        self.pack_by_mask(field, keep)
    }
}

/// Generates code for a scalar function over field registers.
fn gen_scalar(g: &mut Gen, phi: &Scalar, ins: &[Reg], s: &Type) -> Result<(Vec<Reg>, Type), E> {
    match phi {
        Scalar::Id => Ok((ins.to_vec(), s.clone())),
        Scalar::Comp(p2, p1) => {
            let (mid, ms) = gen_scalar(g, p1, ins, s)?;
            gen_scalar(g, p2, &mid, &ms)
        }
        Scalar::Bang => {
            let z = g.alloc();
            g.emit(Instr::Arith {
                dst: z,
                op: Op::Monus,
                a: ins[0],
                b: ins[0],
            });
            Ok((vec![z], Type::Unit))
        }
        Scalar::Const(n) => {
            let c = g.fill_like(ins[0], *n);
            Ok((vec![c], Type::Nat))
        }
        Scalar::Arith(op) => {
            let out = g.alloc();
            g.emit(Instr::Arith {
                dst: out,
                op: op_of(*op),
                a: ins[0],
                b: ins[1],
            });
            Ok((vec![out], Type::Nat))
        }
        Scalar::Cmp(op) => {
            let tag = g.alloc();
            g.emit(Instr::Arith {
                dst: tag,
                op: cmp_of(*op),
                a: ins[0],
                b: ins[1],
            });
            let z1 = g.fill_like(tag, 0);
            let z2 = g.fill_like(tag, 0);
            Ok((vec![tag, z1, z2], Type::bool_()))
        }
        Scalar::Pi1 => match s {
            Type::Prod(a, _) => Ok((ins[..scalar_fields(a)].to_vec(), (**a).clone())),
            _ => Err(stuck("gen scalar pi1")),
        },
        Scalar::Pi2 => match s {
            Type::Prod(a, b) => Ok((ins[scalar_fields(a)..].to_vec(), (**b).clone())),
            _ => Err(stuck("gen scalar pi2")),
        },
        Scalar::PairS(p1, p2) => {
            let (mut r1, t1) = gen_scalar(g, p1, ins, s)?;
            let (r2, t2) = gen_scalar(g, p2, ins, s)?;
            r1.extend(r2);
            Ok((r1, Type::prod(t1, t2)))
        }
        Scalar::InlS(right) => {
            let tag = g.fill_like(ins[0], 1);
            let mut out = vec![tag];
            out.extend_from_slice(ins);
            for _ in 0..scalar_fields(right) {
                out.push(g.fill_like(ins[0], PAD));
            }
            Ok((out, Type::sum(s.clone(), right.clone())))
        }
        Scalar::InrS(left) => {
            let tag = g.fill_like(ins[0], 0);
            let mut out = vec![tag];
            for _ in 0..scalar_fields(left) {
                out.push(g.fill_like(ins[0], PAD));
            }
            out.extend_from_slice(ins);
            Ok((out, Type::sum(left.clone(), s.clone())))
        }
        Scalar::CaseS(p1, p2) => match s {
            Type::Sum(a, b) => {
                let fa = scalar_fields(a);
                let tag = ins[0];
                let (lo, cl) = gen_scalar(g, p1, &ins[1..1 + fa], a)?;
                let (ro, cr) = gen_scalar(g, p2, &ins[1 + fa..], b)?;
                if cl != cr {
                    return Err(stuck("gen scalar case branches differ"));
                }
                // branch-free select: tag*l + (1-tag)*r
                let ones = g.fill_like(tag, 1);
                let ntag = g.alloc();
                g.emit(Instr::Arith {
                    dst: ntag,
                    op: Op::Monus,
                    a: ones,
                    b: tag,
                });
                let mut out = Vec::with_capacity(lo.len());
                for (l, r) in lo.iter().zip(&ro) {
                    let ml = g.alloc();
                    let mr = g.alloc();
                    let o = g.alloc();
                    g.emit(Instr::Arith {
                        dst: ml,
                        op: Op::Mul,
                        a: *l,
                        b: tag,
                    });
                    g.emit(Instr::Arith {
                        dst: mr,
                        op: Op::Mul,
                        a: *r,
                        b: ntag,
                    });
                    g.emit(Instr::Arith {
                        dst: o,
                        op: Op::Add,
                        a: ml,
                        b: mr,
                    });
                    out.push(o);
                }
                Ok((out, cl))
            }
            _ => Err(stuck("gen scalar case domain")),
        },
        Scalar::DistS => match s {
            Type::Prod(sum_ty, t) => match &**sum_ty {
                Type::Sum(a, b) => {
                    let fa = scalar_fields(a);
                    let fb = scalar_fields(b);
                    let tag = ins[0];
                    let ra = &ins[1..1 + fa];
                    let rb = &ins[1 + fa..1 + fa + fb];
                    let rt = &ins[1 + fa + fb..];
                    let mut out = vec![tag];
                    out.extend_from_slice(ra);
                    out.extend_from_slice(rt);
                    out.extend_from_slice(rb);
                    out.extend_from_slice(rt);
                    Ok((
                        out,
                        Type::sum(
                            Type::prod((**a).clone(), (**t).clone()),
                            Type::prod((**b).clone(), (**t).clone()),
                        ),
                    ))
                }
                _ => Err(stuck("gen scalar dist")),
            },
            _ => Err(stuck("gen scalar dist")),
        },
    }
}

/// Generates code for an SA function; returns output registers + codomain.
fn gen_sa(g: &mut Gen, f: &Sa, ins: &[Reg], dom: &Type) -> Result<(Vec<Reg>, Type), E> {
    match f {
        Sa::Id => Ok((ins.to_vec(), dom.clone())),
        Sa::Compose(f2, f1) => {
            let (mid, ms) = gen_sa(g, f1, ins, dom)?;
            gen_sa(g, f2, &mid, &ms)
        }
        Sa::Bang => Ok((vec![], Type::Unit)),
        Sa::PairF(f1, f2) => {
            let (mut r1, t1) = gen_sa(g, f1, ins, dom)?;
            let (r2, t2) = gen_sa(g, f2, ins, dom)?;
            r1.extend(r2);
            Ok((r1, Type::prod(t1, t2)))
        }
        Sa::Pi1 => match dom {
            Type::Prod(a, _) => Ok((ins[..reg_count(a)].to_vec(), (**a).clone())),
            _ => Err(stuck("gen pi1")),
        },
        Sa::Pi2 => match dom {
            Type::Prod(a, b) => Ok((ins[reg_count(a)..].to_vec(), (**b).clone())),
            _ => Err(stuck("gen pi2")),
        },
        Sa::InlF(right) => {
            let tag = g.alloc();
            g.emit(Instr::Singleton { dst: tag, n: 1 });
            let mut out = vec![tag];
            out.extend_from_slice(ins);
            for _ in 0..reg_count(right) {
                let e = g.alloc();
                g.emit(Instr::Empty { dst: e });
                out.push(e);
            }
            Ok((out, Type::sum(dom.clone(), right.clone())))
        }
        Sa::InrF(left) => {
            let tag = g.alloc();
            g.emit(Instr::Singleton { dst: tag, n: 0 });
            let mut out = vec![tag];
            for _ in 0..reg_count(left) {
                let e = g.alloc();
                g.emit(Instr::Empty { dst: e });
                out.push(e);
            }
            out.extend_from_slice(ins);
            Ok((out, Type::sum(left.clone(), dom.clone())))
        }
        Sa::SumCase(f1, f2) => match dom {
            Type::Sum(a, b) => {
                let na = reg_count(a);
                let tag = ins[0];
                let l_right = g.label("case_r");
                let l_end = g.label("case_end");
                let sel = g.alloc();
                g.emit(Instr::Select { dst: sel, src: tag });
                g.b.if_empty_goto(sel, &l_right);
                // inl branch
                let (lo, cl) = gen_sa(g, f1, &ins[1..1 + na], a)?;
                let outs: Vec<Reg> = (0..lo.len()).map(|_| g.alloc()).collect();
                for (o, l) in outs.iter().zip(&lo) {
                    g.emit(Instr::Move { dst: *o, src: *l });
                }
                g.b.goto(&l_end);
                g.b.label(&l_right);
                let (ro, cr) = gen_sa(g, f2, &ins[1 + na..], b)?;
                if cl != cr {
                    return Err(stuck("gen sum case branches differ"));
                }
                for (o, r) in outs.iter().zip(&ro) {
                    g.emit(Instr::Move { dst: *o, src: *r });
                }
                g.b.label(&l_end);
                Ok((outs, cl))
            }
            _ => Err(stuck("gen sum case domain")),
        },
        Sa::Dist => match dom {
            Type::Prod(sum_ty, t) => match &**sum_ty {
                Type::Sum(a, b) => {
                    let na = reg_count(a);
                    let nb = reg_count(b);
                    let tag = ins[0];
                    let ra = &ins[1..1 + na];
                    let rb = &ins[1 + na..1 + na + nb];
                    let rt = &ins[1 + na + nb..];
                    let mut out = vec![tag];
                    out.extend_from_slice(ra);
                    out.extend_from_slice(rt);
                    out.extend_from_slice(rb);
                    out.extend_from_slice(rt);
                    Ok((
                        out,
                        Type::sum(
                            Type::prod((**a).clone(), (**t).clone()),
                            Type::prod((**b).clone(), (**t).clone()),
                        ),
                    ))
                }
                _ => Err(stuck("gen dist")),
            },
            _ => Err(stuck("gen dist")),
        },
        Sa::OmegaF(cod) => {
            // A deliberate machine fault (division by zero) models Ω.
            let one = g.alloc();
            let zero = g.alloc();
            let sink = g.alloc();
            g.emit(Instr::Singleton { dst: one, n: 1 });
            g.emit(Instr::Singleton { dst: zero, n: 0 });
            g.emit(Instr::Arith {
                dst: sink,
                op: Op::Div,
                a: one,
                b: zero,
            });
            // Unreachable outputs (registers exist so layouts line up).
            let outs: Vec<Reg> = (0..reg_count(cod)).map(|_| g.alloc()).collect();
            for o in &outs {
                g.emit(Instr::Empty { dst: *o });
            }
            Ok((outs, cod.clone()))
        }
        Sa::MapScalar(phi) => match dom {
            Type::Seq(s) => {
                let (outs, s2) = gen_scalar(g, phi, ins, s)?;
                Ok((outs, Type::seq(s2)))
            }
            _ => Err(stuck("gen map scalar domain")),
        },
        Sa::EmptyF(s) => {
            let outs: Vec<Reg> = (0..scalar_fields(s)).map(|_| g.alloc()).collect();
            for o in &outs {
                g.emit(Instr::Empty { dst: *o });
            }
            Ok((outs, Type::seq(s.clone())))
        }
        Sa::SingletonUnit => {
            let r = g.alloc();
            g.emit(Instr::Singleton { dst: r, n: 0 });
            Ok((vec![r], Type::seq(Type::Unit)))
        }
        Sa::AppendF => match dom {
            Type::Prod(a, _) => match &**a {
                Type::Seq(s) => {
                    let nf = scalar_fields(s);
                    let mut outs = Vec::with_capacity(nf);
                    for i in 0..nf {
                        let o = g.alloc();
                        g.emit(Instr::Append {
                            dst: o,
                            a: ins[i],
                            b: ins[nf + i],
                        });
                        outs.push(o);
                    }
                    Ok((outs, (**a).clone()))
                }
                _ => Err(stuck("gen append domain")),
            },
            _ => Err(stuck("gen append domain")),
        },
        Sa::LengthF => {
            let o = g.alloc();
            g.emit(Instr::Length {
                dst: o,
                src: ins[0],
            });
            Ok((vec![o], Type::seq(Type::Nat)))
        }
        Sa::EmptyTest => {
            let l = g.alloc();
            let z = g.alloc();
            let tag = g.alloc();
            g.emit(Instr::Length {
                dst: l,
                src: ins[0],
            });
            g.emit(Instr::Singleton { dst: z, n: 0 });
            g.emit(Instr::Arith {
                dst: tag,
                op: Op::Eq,
                a: l,
                b: z,
            });
            Ok((vec![tag], Type::bool_()))
        }
        Sa::Sigma1 | Sa::Sigma2 => match dom {
            Type::Seq(s) => match s.as_ref() {
                Type::Sum(s1, s2) => {
                    let f1 = scalar_fields(s1);
                    let tag = ins[0];
                    let keep_left = matches!(f, Sa::Sigma1);
                    let mask = if keep_left {
                        tag
                    } else {
                        let ones = g.fill_like(tag, 1);
                        let m = g.alloc();
                        g.emit(Instr::Arith {
                            dst: m,
                            op: Op::Monus,
                            a: ones,
                            b: tag,
                        });
                        m
                    };
                    let fields: &[Reg] = if keep_left {
                        &ins[1..1 + f1]
                    } else {
                        &ins[1 + f1..]
                    };
                    let mut outs = Vec::with_capacity(fields.len());
                    for r in fields {
                        outs.push(g.pack_by_mask(*r, mask));
                    }
                    let kept = if keep_left { s1 } else { s2 };
                    Ok((outs, Type::seq((**kept).clone())))
                }
                _ => Err(stuck("gen sigma element")),
            },
            _ => Err(stuck("gen sigma domain")),
        },
        Sa::ZipF => match dom {
            Type::Prod(a, b) => match (&**a, &**b) {
                (Type::Seq(s1), Type::Seq(s2)) => Ok((
                    ins.to_vec(),
                    Type::seq(Type::prod((**s1).clone(), (**s2).clone())),
                )),
                _ => Err(stuck("gen zip domain")),
            },
            _ => Err(stuck("gen zip domain")),
        },
        Sa::EnumerateF => {
            let o = g.alloc();
            g.emit(Instr::Enumerate {
                dst: o,
                src: ins[0],
            });
            Ok((vec![o], Type::seq(Type::Nat)))
        }
        Sa::BmRouteF => match dom {
            Type::Prod(bc, vals) => match (&**bc, &**vals) {
                (Type::Prod(bt, _), Type::Seq(sv)) => {
                    let Type::Seq(sb) = &**bt else {
                        return Err(stuck("gen bm_route bound"));
                    };
                    let nb = scalar_fields(sb);
                    let bound0 = ins[0];
                    let counts = ins[nb];
                    let vfields = &ins[nb + 1..];
                    let mut outs = Vec::with_capacity(vfields.len());
                    for v in vfields {
                        let o = g.alloc();
                        g.emit(Instr::BmRoute {
                            dst: o,
                            bound: bound0,
                            counts,
                            values: *v,
                        });
                        outs.push(o);
                    }
                    Ok((outs, Type::seq((**sv).clone())))
                }
                _ => Err(stuck("gen bm_route domain")),
            },
            _ => Err(stuck("gen bm_route domain")),
        },
        Sa::SbmRouteF => match dom {
            Type::Prod(bc, ds) => match (&**bc, &**ds) {
                (Type::Prod(bt, _), Type::Prod(dv, _)) => {
                    let (Type::Seq(sb), Type::Seq(sv)) = (&**bt, &**dv) else {
                        return Err(stuck("gen sbm_route shapes"));
                    };
                    let nb = scalar_fields(sb);
                    let nv = scalar_fields(sv);
                    let bound0 = ins[0];
                    let counts = ins[nb];
                    let dfields = &ins[nb + 1..nb + 1 + nv];
                    let segs = ins[nb + 1 + nv];
                    let mut outs = Vec::with_capacity(dfields.len());
                    for d in dfields {
                        let o = g.alloc();
                        g.emit(Instr::SbmRoute {
                            dst: o,
                            bound: bound0,
                            counts,
                            data: *d,
                            segs,
                        });
                        outs.push(o);
                    }
                    Ok((outs, Type::seq((**sv).clone())))
                }
                _ => Err(stuck("gen sbm_route domain")),
            },
            _ => Err(stuck("gen sbm_route domain")),
        },
        Sa::While(p, body, trip) => {
            // Stable state registers; predicate tag gates the loop.
            let state: Vec<Reg> = (0..ins.len()).map(|_| g.alloc()).collect();
            for (s, i) in state.iter().zip(ins) {
                g.emit(Instr::Move { dst: *s, src: *i });
            }
            let l_start = g.label("while");
            let l_end = g.label("wend");
            g.b.label(&l_start);
            let (pres, pc) = gen_sa(g, p, &state, dom)?;
            if !pc.is_bool() {
                return Err(stuck("gen while predicate"));
            }
            let sel = g.alloc();
            g.emit(Instr::Select {
                dst: sel,
                src: pres[0],
            });
            g.b.if_empty_goto(sel, &l_end);
            let (bres, bc) = gen_sa(g, body, &state, dom)?;
            if &bc != dom {
                return Err(stuck("gen while body type"));
            }
            for (s, r) in state.iter().zip(&bres) {
                g.emit(Instr::Move { dst: *s, src: *r });
            }
            if let Some(bound) = resolve_trip(trip, &state, dom) {
                g.b.trip_hint(bound);
            }
            g.b.goto(&l_start);
            g.b.label(&l_end);
            Ok((state, dom.clone()))
        }
        Sa::PrefixSum => {
            // Recursive-doubling loop over (y, d).
            let y = g.alloc();
            g.emit(Instr::Move {
                dst: y,
                src: ins[0],
            });
            let d = g.alloc();
            g.emit(Instr::Singleton { dst: d, n: 1 });
            let l_start = g.label("scan");
            let l_end = g.label("send");
            g.b.label(&l_start);
            let n = g.alloc();
            g.emit(Instr::Length { dst: n, src: y });
            let c = g.alloc();
            g.emit(Instr::Arith {
                dst: c,
                op: Op::Lt,
                a: d,
                b: n,
            });
            let sel = g.alloc();
            g.emit(Instr::Select { dst: sel, src: c });
            g.b.if_empty_goto(sel, &l_end);
            // shifted = zeros(d) @ take(y, n - d)
            let nd = g.alloc();
            g.emit(Instr::Arith {
                dst: nd,
                op: Op::Monus,
                a: n,
                b: d,
            });
            let head = g.take_prefix(y, nd);
            let dpart = g.take_prefix(y, d);
            let zeros = g.alloc();
            g.emit(Instr::Arith {
                dst: zeros,
                op: Op::Monus,
                a: dpart,
                b: dpart,
            });
            let shifted = g.alloc();
            g.emit(Instr::Append {
                dst: shifted,
                a: zeros,
                b: head,
            });
            let y2 = g.alloc();
            g.emit(Instr::Arith {
                dst: y2,
                op: Op::Add,
                a: y,
                b: shifted,
            });
            g.emit(Instr::Move { dst: y, src: y2 });
            let d2 = g.alloc();
            g.emit(Instr::Arith {
                dst: d2,
                op: Op::Add,
                a: d,
                b: d,
            });
            g.emit(Instr::Move { dst: d, src: d2 });
            // Recursive doubling: d = 1, 2, 4, … < n ≤ u64::MAX, so the
            // back edge runs at most 64 times (65 with slack).
            g.b.trip_hint(TripBound::Const(65));
            g.b.goto(&l_start);
            g.b.label(&l_end);
            Ok((vec![y], Type::seq(Type::Nat)))
        }
    }
}

/// Resolves a loop's trip certificate against its state registers.
///
/// A `LenPath` walks the *flat* state type (products only — the
/// flattening translation preserves product structure) to the register
/// block of the addressed component; the first register of any sequence
/// encoding has length exactly the source sequence's length, so that
/// register's entry length bounds the trips.
fn resolve_trip(trip: &Trip, state: &[Reg], dom: &Type) -> Option<TripBound> {
    match trip {
        Trip::Unknown => None,
        Trip::Const(c) => Some(TripBound::Const(*c)),
        Trip::LenPath(path) => {
            let mut ty = dom;
            let mut off = 0usize;
            for s in path {
                let Type::Prod(l, r) = ty else {
                    return None;
                };
                match s {
                    Step::P1 => ty = l,
                    Step::P2 => {
                        off += reg_count(l);
                        ty = r;
                    }
                }
            }
            if reg_count(ty) == 0 {
                return None;
            }
            state.get(off).map(|r| TripBound::Len { reg: *r })
        }
    }
}

/// Compiles an SA function into a BVRAM program (Proposition 7.5, the
/// direction Theorem 7.1 needs).  Returns the program and the codomain.
pub fn compile_sa(f: &Sa, dom: &Type) -> Result<(Program, Type), E> {
    let r_in = reg_count(dom);
    let mut g = Gen {
        b: Builder::new(r_in, 0),
        next_reg: r_in as u32,
        next_label: 0,
    };
    let ins: Vec<Reg> = (0..r_in as Reg).collect();
    let (outs, cod) = gen_sa(&mut g, f, &ins, dom)?;
    // Stage outputs through temporaries, then into V0..: the out list may
    // alias input registers.
    let temps: Vec<Reg> = (0..outs.len()).map(|_| g.alloc()).collect();
    for (t, o) in temps.iter().zip(&outs) {
        g.emit(Instr::Move { dst: *t, src: *o });
    }
    for (i, t) in temps.iter().enumerate() {
        g.emit(Instr::Move {
            dst: i as Reg,
            src: *t,
        });
    }
    g.emit(Instr::Halt);
    let mut prog =
        g.b.build()
            .map_err(|e| E::MachineFault(format!("codegen emitted a malformed program: {e}")))?;
    prog.r_out = outs.len();
    Ok((prog, cod))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{regs_to_value, value_to_regs};
    use bvram::run_program;
    use nsc_algebra::sa::b::*;
    use nsc_algebra::sa::{apply_sa, scalar::b as sb};
    use nsc_core::value::Value;

    /// Differential check: SA evaluator vs generated BVRAM code.
    fn check(f: &Sa, dom: &Type, arg: Value) {
        let expected = apply_sa(f, &arg);
        let (prog, cod) = compile_sa(f, dom).unwrap();
        let regs = value_to_regs(&arg, dom).unwrap();
        match expected {
            Ok((want, _)) => {
                let out = run_program(&prog, &regs)
                    .unwrap_or_else(|e| panic!("machine error {e} for {f}\n{prog}"));
                let got = regs_to_value(&out.outputs, &cod).unwrap();
                assert_eq!(got, want, "codegen mismatch for {f}");
            }
            Err(_) => {
                assert!(run_program(&prog, &regs).is_err(), "expected fault for {f}");
            }
        }
    }

    fn nats(ns: &[u64]) -> Value {
        Value::nat_seq(ns.iter().copied())
    }

    #[test]
    fn source_and_machine_arithmetic_agree() {
        // Two copies of the arithmetic exist (the evaluator's `ArithOp`
        // and the machine's `Op`); they must agree everywhere, the
        // partial cases and the 64-bit edge included.
        use ArithOp::*;
        let grid = [0, 1, 2, 63, 64, 65, 1 << 32, 1 << 63, u64::MAX];
        for a in [Add, Monus, Mul, Div, Mod, Rshift, Lshift, Min, Max, Log2] {
            for m in grid {
                for n in grid {
                    assert_eq!(a.apply(m, n), op_of(a).apply(m, n), "{a:?} {m} {n}");
                }
            }
        }
        for c in [CmpOp::Eq, CmpOp::Le, CmpOp::Lt] {
            for m in grid {
                for n in grid {
                    let want = Some(u64::from(c.apply(m, n)));
                    assert_eq!(want, cmp_of(c).apply(m, n), "{c:?} {m} {n}");
                }
            }
        }
    }

    #[test]
    fn map_scalar_codegen() {
        let f = maps(sb::comp(
            Scalar::Arith(ArithOp::Mul),
            sb::pairs(Scalar::Id, Scalar::Id),
        ));
        check(&f, &Type::seq(Type::Nat), nats(&[1, 2, 3, 4]));
    }

    #[test]
    fn scalar_case_is_branch_free() {
        // map(λx. if 0 < x then x else 99)
        let phi = sb::ifs(
            sb::comp(
                Scalar::Cmp(CmpOp::Lt),
                sb::pairs(sb::comp(Scalar::Const(0), Scalar::Bang), Scalar::Id),
            ),
            Scalar::Id,
            Scalar::Const(99),
        );
        check(&maps(phi), &Type::seq(Type::Nat), nats(&[0, 3, 0, 7]));
    }

    #[test]
    fn sigma_codegen_preserves_zeros() {
        let mixed = Value::seq(vec![
            Value::inl(Value::nat(0)), // a genuine zero must survive packing
            Value::inr(Value::nat(5)),
            Value::inl(Value::nat(2)),
        ]);
        check(
            &Sa::Sigma1,
            &Type::seq(Type::sum(Type::Nat, Type::Nat)),
            mixed.clone(),
        );
        check(
            &Sa::Sigma2,
            &Type::seq(Type::sum(Type::Nat, Type::Nat)),
            mixed,
        );
    }

    #[test]
    fn routing_codegen() {
        let arg = Value::pair(
            Value::pair(nats(&[0; 5]), nats(&[2, 0, 3])),
            nats(&[7, 8, 9]),
        );
        let dom = Type::prod(
            Type::prod(Type::seq(Type::Nat), Type::seq(Type::Nat)),
            Type::seq(Type::Nat),
        );
        check(&Sa::BmRouteF, &dom, arg);
    }

    #[test]
    fn flat_sum_dispatch_codegen() {
        // f = (length + λu.[0]) over [N] + unit
        let f = sum(Sa::LengthF, const_seq(0));
        let dom = Type::sum(Type::seq(Type::Nat), Type::Unit);
        check(&f, &dom, Value::inl(nats(&[4, 5, 6])));
        check(&f, &dom, Value::inr(Value::unit()));
    }

    #[test]
    fn while_codegen_loops() {
        // while head > 0: decrement (on a [N] singleton)
        let gt0 = sb::comp(
            Scalar::Cmp(CmpOp::Lt),
            sb::pairs(sb::comp(Scalar::Const(0), Scalar::Bang), Scalar::Id),
        );
        let tagger = maps(sb::comp(
            sb::cases(Scalar::InlS(Type::Unit), Scalar::InrS(Type::Unit)),
            sb::comp(gt0, Scalar::Id),
        ));
        let not = sum(
            comp(Sa::InrF(Type::Unit), Sa::Id),
            comp(Sa::InlF(Type::Unit), Sa::Id),
        );
        let pred = comp(not, comp(Sa::EmptyTest, comp(Sa::Sigma1, tagger)));
        let dec = maps(sb::comp(
            Scalar::Arith(ArithOp::Monus),
            sb::pairs(Scalar::Id, sb::comp(Scalar::Const(1), Scalar::Bang)),
        ));
        check(&whilef(pred, dec), &Type::seq(Type::Nat), nats(&[6]));
    }

    #[test]
    fn prefix_sum_codegen() {
        check(
            &Sa::PrefixSum,
            &Type::seq(Type::Nat),
            nats(&[3, 1, 4, 1, 5, 9, 2, 6]),
        );
        check(&Sa::PrefixSum, &Type::seq(Type::Nat), nats(&[]));
        check(&Sa::PrefixSum, &Type::seq(Type::Nat), nats(&[42]));
    }

    #[test]
    fn omega_codegen_faults() {
        check(&Sa::OmegaF(Type::Unit), &Type::Unit, Value::unit());
    }

    #[test]
    fn register_count_is_input_independent() {
        let f = comp(Sa::PrefixSum, maps(Scalar::Id));
        let (p1, _) = compile_sa(&f, &Type::seq(Type::Nat)).unwrap();
        let (p2, _) = compile_sa(&f, &Type::seq(Type::Nat)).unwrap();
        assert_eq!(p1.n_regs, p2.n_regs);
        // and running on bigger inputs uses the same registers
        let r1 = run_program(&p1, &[vec![1, 2, 3]]).unwrap();
        let r2 = run_program(&p1, &[(0..1000).collect()]).unwrap();
        assert!(r2.stats.work > r1.stats.work);
    }
}
