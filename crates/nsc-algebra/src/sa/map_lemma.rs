//! **Lemma 7.2 (the Map Lemma)**: for every SA function `f : t → t'` there
//! is an SA function `SEQ(f) : SEQ(t) → SEQ(t')` simulating `map(f)`.
//!
//! This module builds `SEQ(f)` by induction on `f` (the paper's proof
//! sketch, made executable), together with the segmented toolkit the
//! construction needs — all expressed as SA combinator compositions:
//!
//! * [`pack_enc`] — keep the elements whose flag is `true` (flags expand
//!   through segment descriptors via `bm_route`; tag-then-`σᵢ` packs each
//!   leaf);
//! * [`merge_enc`] — the inverse: interleave two batches according to a
//!   flag sequence.  At the leaves this is exactly Example D.1's `combine`
//!   (positions → spread counts → two `bm_route`s → select);
//! * [`reorder_enc`] — stable binary-LSD radix reorder by an index
//!   sequence: each pass is one `pack`/`append` round, so the whole
//!   reorder costs `O(log n_max)` parallel time and `O(size · log n)`
//!   work.  This implements the "rather complicated bookkeeping" the
//!   paper's proof waves at: elements extracted early from a batched
//!   `while` are re-sorted to input order at the end;
//! * the hard case `SEQ(while(p, g))`: iterate all still-active elements
//!   in lockstep, extract finished ones into a done-buffer (with their
//!   original indices), and restore order with [`reorder_enc`].
//!
//! As the paper requires, the *structure* of `SEQ(f)` — in particular the
//! number of buffers, hence BVRAM registers — does not depend on ε.

use super::b::*;
use super::scalar::{b as sb, Scalar};
use super::seq::seq_type;
use super::Sa;
use nsc_core::ast::{ArithOp, CmpOp};
use nsc_core::error::EvalError as E;
use nsc_core::types::Type;

type Res = Result<(Sa, Type), E>;

fn stuck(msg: &'static str) -> E {
    E::Stuck(msg)
}

// ---------------------------------------------------------------------------
// Leaf helpers on scalar sequences.
// ---------------------------------------------------------------------------

/// Scalar negation on `B`.
fn phi_not() -> Scalar {
    sb::cases(Scalar::InrS(Type::Unit), Scalar::InlS(Type::Unit))
}

/// Flat-`B` negation.
pub fn not_flat() -> Sa {
    sum(
        comp(Sa::InrF(Type::Unit), Sa::Id),
        comp(Sa::InlF(Type::Unit), Sa::Id),
    )
}

/// `tag_by_flag(s) : [s] × [B] → [s + s]`: wrap each element `inl`/`inr`
/// according to its flag.
fn tag_by_flag(s: &Type) -> Sa {
    // (v, b) --swap--> (b, v) --dist--> ((), v) + ((), v) --cases--> inl v | inr v
    let phi = sb::comp(
        sb::cases(
            sb::comp(Scalar::InlS(s.clone()), Scalar::Pi2),
            sb::comp(Scalar::InrS(s.clone()), Scalar::Pi2),
        ),
        sb::comp(Scalar::DistS, sb::pairs(Scalar::Pi2, Scalar::Pi1)),
    );
    comp(maps(phi), Sa::ZipF)
}

/// `pack_leaf(s) : [s] × [B] → [s]` — keep flagged-true elements.
fn pack_leaf(s: &Type) -> Sa {
    comp(Sa::Sigma1, tag_by_flag(s))
}

/// `pack_leaf_false(s)` — keep flagged-false elements.
fn pack_leaf_false(s: &Type) -> Sa {
    comp(Sa::Sigma2, tag_by_flag(s))
}

/// Broadcast a `[N]` singleton over a sequence:
/// `bcast : [s] × [N] → [N]` (one copy of the scalar per element).
fn bcast_over() -> Sa {
    // ((bound, [len(bound)]), single)
    comp(
        Sa::BmRouteF,
        pair(pair(Sa::Pi1, comp(Sa::LengthF, Sa::Pi1)), Sa::Pi2),
    )
}

// ---------------------------------------------------------------------------
// Structural helpers over SEQ encodings.
// ---------------------------------------------------------------------------

/// `zeros_like(t) : SEQ(t) → [N]` — one `0` per encoded element.
pub fn zeros_like(t: &Type) -> Result<Sa, E> {
    Ok(match t {
        Type::Unit => maps(Scalar::Const(0)),
        Type::Seq(_) => comp(maps(Scalar::Const(0)), Sa::Pi1),
        Type::Prod(a, _) => comp(zeros_like(a)?, Sa::Pi1),
        Type::Sum(_, _) => comp(maps(Scalar::Const(0)), Sa::Pi1),
        Type::Nat => return Err(stuck("zeros_like on N")),
    })
}

/// `count_enc(t) : SEQ(t) → [N]` — the batch length as a singleton.
pub fn count_enc(t: &Type) -> Result<Sa, E> {
    Ok(comp(Sa::LengthF, zeros_like(t)?))
}

/// `empty_enc(t) : x → SEQ(t)` — the empty batch.
pub fn empty_enc(t: &Type) -> Result<Sa, E> {
    Ok(match t {
        Type::Unit => Sa::EmptyF(Type::Nat),
        Type::Seq(s) => pair(Sa::EmptyF(Type::Nat), Sa::EmptyF((**s).clone())),
        Type::Prod(a, b) => pair(empty_enc(a)?, empty_enc(b)?),
        Type::Sum(a, b) => pair(
            Sa::EmptyF(Type::bool_()),
            pair(empty_enc(a)?, empty_enc(b)?),
        ),
        Type::Nat => return Err(stuck("empty_enc on N")),
    })
}

/// `singleton_enc(t) : t → SEQ(t)` — a 1-element batch from a flat value.
pub fn singleton_enc(t: &Type) -> Result<Sa, E> {
    Ok(match t {
        Type::Unit => const_seq(0),
        Type::Seq(_) => pair(Sa::LengthF, Sa::Id),
        Type::Prod(a, b) => pair(
            comp(singleton_enc(a)?, Sa::Pi1),
            comp(singleton_enc(b)?, Sa::Pi2),
        ),
        Type::Sum(a, b) => {
            // inl v ↦ ([true], (enc v, empty)); inr v ↦ ([false], …).
            let true_tag = comp(
                maps(sb::const_bool(true)),
                comp(Sa::SingletonUnit, Sa::Bang),
            );
            let false_tag = comp(
                maps(sb::const_bool(false)),
                comp(Sa::SingletonUnit, Sa::Bang),
            );
            sum(
                pair(true_tag, pair(singleton_enc(a)?, empty_enc(b)?)),
                pair(false_tag, pair(empty_enc(a)?, singleton_enc(b)?)),
            )
        }
        Type::Nat => return Err(stuck("singleton_enc on N")),
    })
}

/// `append_enc(t) : SEQ(t) × SEQ(t) → SEQ(t)` — batch concatenation
/// (componentwise appends).
pub fn append_enc(t: &Type) -> Result<Sa, E> {
    Ok(match t {
        Type::Unit => Sa::AppendF,
        Type::Seq(_) => pair(
            comp(
                Sa::AppendF,
                pair(comp(Sa::Pi1, Sa::Pi1), comp(Sa::Pi1, Sa::Pi2)),
            ),
            comp(
                Sa::AppendF,
                pair(comp(Sa::Pi2, Sa::Pi1), comp(Sa::Pi2, Sa::Pi2)),
            ),
        ),
        Type::Prod(a, b) => pair(
            comp(
                append_enc(a)?,
                pair(comp(Sa::Pi1, Sa::Pi1), comp(Sa::Pi1, Sa::Pi2)),
            ),
            comp(
                append_enc(b)?,
                pair(comp(Sa::Pi2, Sa::Pi1), comp(Sa::Pi2, Sa::Pi2)),
            ),
        ),
        Type::Sum(a, b) => {
            let tags = comp(
                Sa::AppendF,
                pair(comp(Sa::Pi1, Sa::Pi1), comp(Sa::Pi1, Sa::Pi2)),
            );
            let lefts = comp(
                append_enc(a)?,
                pair(
                    comp(Sa::Pi1, comp(Sa::Pi2, Sa::Pi1)),
                    comp(Sa::Pi1, comp(Sa::Pi2, Sa::Pi2)),
                ),
            );
            let rights = comp(
                append_enc(b)?,
                pair(
                    comp(Sa::Pi2, comp(Sa::Pi2, Sa::Pi1)),
                    comp(Sa::Pi2, comp(Sa::Pi2, Sa::Pi2)),
                ),
            );
            pair(tags, pair(lefts, rights))
        }
        Type::Nat => return Err(stuck("append_enc on N")),
    })
}

/// Restrict flags to one side of a tagged batch:
/// `[B]tags × [B]flags → [B]` (flags of the `inl` elements if `left`).
fn side_flags(left: bool) -> Sa {
    // (tag, fl) --dist--> (u, fl) + (u, fl) --cases--> inl fl | inr fl
    let phi = sb::comp(
        sb::cases(
            sb::comp(Scalar::InlS(Type::bool_()), Scalar::Pi2),
            sb::comp(Scalar::InrS(Type::bool_()), Scalar::Pi2),
        ),
        Scalar::DistS,
    );
    let tagged = comp(maps(phi), Sa::ZipF);
    if left {
        comp(Sa::Sigma1, tagged)
    } else {
        comp(Sa::Sigma2, tagged)
    }
}

/// `pack_enc(t) : [B] × SEQ(t) → SEQ(t)` — keep the elements flagged `true`.
pub fn pack_enc(t: &Type) -> Result<Sa, E> {
    let flags = Sa::Pi1;
    let enc = Sa::Pi2;
    Ok(match t {
        Type::Unit => comp(pack_leaf(&Type::Nat), pair(enc, flags)),
        Type::Seq(s) => {
            let segs = comp(Sa::Pi1, enc.clone());
            let data = comp(Sa::Pi2, enc.clone());
            let segs2 = comp(pack_leaf(&Type::Nat), pair(segs.clone(), flags.clone()));
            // Expand element flags through the segment descriptor.
            let eflags = comp(Sa::BmRouteF, pair(pair(data.clone(), segs), flags));
            let data2 = comp(pack_leaf(s), pair(data, eflags));
            pair(segs2, data2)
        }
        Type::Prod(a, b) => pair(
            comp(
                pack_enc(a)?,
                pair(flags.clone(), comp(Sa::Pi1, enc.clone())),
            ),
            comp(pack_enc(b)?, pair(flags, comp(Sa::Pi2, enc))),
        ),
        Type::Sum(a, b) => {
            let tags = comp(Sa::Pi1, enc.clone());
            let e1 = comp(Sa::Pi1, comp(Sa::Pi2, enc.clone()));
            let e2 = comp(Sa::Pi2, comp(Sa::Pi2, enc));
            let tags2 = comp(pack_leaf(&Type::bool_()), pair(tags.clone(), flags.clone()));
            let fl_l = comp(side_flags(true), pair(tags.clone(), flags.clone()));
            let fl_r = comp(side_flags(false), pair(tags, flags));
            pair(
                tags2,
                pair(
                    comp(pack_enc(a)?, pair(fl_l, e1)),
                    comp(pack_enc(b)?, pair(fl_r, e2)),
                ),
            )
        }
        Type::Nat => return Err(stuck("pack_enc on N")),
    })
}

/// `pack_enc_false(t)` — keep the elements flagged `false`
/// (pack with negated flags).
pub fn pack_enc_false(t: &Type) -> Result<Sa, E> {
    Ok(comp(
        pack_enc(t)?,
        pair(comp(maps(phi_not()), Sa::Pi1), Sa::Pi2),
    ))
}

// ---------------------------------------------------------------------------
// Example D.1's combine, as the leaf-level merge.
// ---------------------------------------------------------------------------

/// `tail_n : [N] → [N]` (drop the head; empty stays empty).
fn tail_n() -> Sa {
    // keep where enumerate > 0
    let gt0 = sb::comp(
        Scalar::Cmp(CmpOp::Lt),
        sb::pairs(sb::comp(Scalar::Const(0), Scalar::Bang), Scalar::Id),
    );
    let flags = comp(
        maps(sb::comp(gt0, Scalar::Pi2)),
        comp(Sa::ZipF, pair(Sa::Id, Sa::EnumerateF)),
    );
    comp(pack_leaf(&Type::Nat), pair(Sa::Id, flags))
}

/// `first_n : [N] → [N]` (the head as a singleton; empty stays empty).
fn first_n() -> Sa {
    let eq0 = sb::comp(
        Scalar::Cmp(CmpOp::Eq),
        sb::pairs(Scalar::Id, sb::comp(Scalar::Const(0), Scalar::Bang)),
    );
    let flags = comp(
        maps(sb::comp(eq0, Scalar::Pi2)),
        comp(Sa::ZipF, pair(Sa::Id, Sa::EnumerateF)),
    );
    comp(pack_leaf(&Type::Nat), pair(Sa::Id, flags))
}

/// Example D.1 spread counts: from ascending positions `pos` (nonempty)
/// and the total length `n` (singleton), produce the replication counts
/// `[pos₀ + (pos₁ − pos₀), pos₂ − pos₁, …, n − pos_{k-1}]`.
/// Input: `pos × n`.
fn spread_counts() -> Sa {
    let pos = Sa::Pi1;
    let n = Sa::Pi2;
    // neighbours = tail(pos) @ n
    let neighbours = comp(Sa::AppendF, pair(comp(tail_n(), pos.clone()), n));
    // base = map(-)(zip(neighbours, pos))
    let base = comp(
        maps(Scalar::Arith(ArithOp::Monus)),
        comp(Sa::ZipF, pair(neighbours, pos.clone())),
    );
    // head' = first(base) + first(pos); counts = [head'] @ tail(base)
    let head = comp(
        maps(Scalar::Arith(ArithOp::Add)),
        comp(
            Sa::ZipF,
            pair(comp(first_n(), base.clone()), comp(first_n(), pos)),
        ),
    );
    comp(Sa::AppendF, pair(head, comp(tail_n(), base)))
}

/// `merge_leaf : [B] × ([s] × [s]) → [s]` — Example D.1's `combine`:
/// interleave `x` and `y` by the flags (`true` takes the next `x`).  One
/// term serves every leaf type `s`: it only routes elements.
pub fn merge_leaf() -> Sa {
    let flags = Sa::Pi1;
    let x = comp(Sa::Pi1, Sa::Pi2);
    let y = comp(Sa::Pi2, Sa::Pi2);
    let n = comp(Sa::LengthF, flags.clone());

    // positions of true and false flags
    let tagged_pos = comp(
        tag_by_flag(&Type::Nat),
        pair(comp(Sa::EnumerateF, flags.clone()), flags.clone()),
    );
    let posx = comp(Sa::Sigma1, tagged_pos.clone());
    let posy = comp(Sa::Sigma2, tagged_pos);

    let counts_x = comp(spread_counts(), pair(posx.clone(), n.clone()));
    let counts_y = comp(spread_counts(), pair(posy.clone(), n));
    let spread_x = comp(Sa::BmRouteF, pair(pair(flags.clone(), counts_x), x.clone()));
    let spread_y = comp(Sa::BmRouteF, pair(pair(flags.clone(), counts_y), y.clone()));

    // select by flag: (b, (u, w)) → u if b else w
    let phi_sel = sb::comp(
        sb::cases(
            sb::comp(Scalar::Pi1, Scalar::Pi2),
            sb::comp(Scalar::Pi2, Scalar::Pi2),
        ),
        Scalar::DistS,
    );
    let general = comp(
        maps(phi_sel),
        comp(
            Sa::ZipF,
            pair(flags.clone(), comp(Sa::ZipF, pair(spread_x, spread_y))),
        ),
    );

    // Guard the degenerate cases D.1 glosses over.
    iff(
        comp(Sa::EmptyTest, posx),
        y,
        iff(comp(Sa::EmptyTest, posy), x, general),
    )
}

/// `merge_enc(t) : [B] × (SEQ(t) × SEQ(t)) → SEQ(t)` — interleave two
/// batches by flags (`true` takes the next element of the first).
pub fn merge_enc(t: &Type) -> Result<Sa, E> {
    let flags = Sa::Pi1;
    let ea = comp(Sa::Pi1, Sa::Pi2);
    let eb = comp(Sa::Pi2, Sa::Pi2);
    Ok(match t {
        Type::Unit => merge_leaf(),
        Type::Seq(_) => {
            let segs_a = comp(Sa::Pi1, ea.clone());
            let segs_b = comp(Sa::Pi1, eb.clone());
            let data_a = comp(Sa::Pi2, ea);
            let data_b = comp(Sa::Pi2, eb);
            let segs = comp(merge_leaf(), pair(flags.clone(), pair(segs_a, segs_b)));
            // element-level flags: expand the merged flags by merged segs;
            // bound = dataA @ dataB (only its length matters).
            let bound = comp(Sa::AppendF, pair(data_a.clone(), data_b.clone()));
            let eflags = comp(Sa::BmRouteF, pair(pair(bound, segs.clone()), flags));
            let data = comp(merge_leaf(), pair(eflags, pair(data_a, data_b)));
            pair(segs, data)
        }
        Type::Prod(a, b) => pair(
            comp(
                merge_enc(a)?,
                pair(
                    flags.clone(),
                    pair(comp(Sa::Pi1, ea.clone()), comp(Sa::Pi1, eb.clone())),
                ),
            ),
            comp(
                merge_enc(b)?,
                pair(flags, pair(comp(Sa::Pi2, ea), comp(Sa::Pi2, eb))),
            ),
        ),
        Type::Sum(a, b) => {
            let tags_a = comp(Sa::Pi1, ea.clone());
            let tags_b = comp(Sa::Pi1, eb.clone());
            let a1 = comp(Sa::Pi1, comp(Sa::Pi2, ea.clone()));
            let a2 = comp(Sa::Pi2, comp(Sa::Pi2, ea));
            let b1 = comp(Sa::Pi1, comp(Sa::Pi2, eb.clone()));
            let b2 = comp(Sa::Pi2, comp(Sa::Pi2, eb));
            let tags = comp(merge_leaf(), pair(flags.clone(), pair(tags_a, tags_b)));
            // Which source each merged inl/inr element came from:
            let gl = comp(side_flags(true), pair(tags.clone(), flags.clone()));
            let gr = comp(side_flags(false), pair(tags.clone(), flags));
            pair(
                tags,
                pair(
                    comp(merge_enc(a)?, pair(gl, pair(a1, b1))),
                    comp(merge_enc(b)?, pair(gr, pair(a2, b2))),
                ),
            )
        }
        Type::Nat => return Err(stuck("merge_enc on N")),
    })
}

// ---------------------------------------------------------------------------
// Stable radix reorder by original index.
// ---------------------------------------------------------------------------

/// `reorder_enc(t) : [N] × SEQ(t) → SEQ(t)` — stable binary-LSD radix sort
/// of the batch by the (distinct) index sequence.
///
/// Each pass packs the bit-0 elements before the bit-1 elements (stable),
/// so after processing every significant bit the batch is in index order:
/// `T = O(log max_idx)`, `W = O(size · log max_idx)`.
pub fn reorder_enc(t: &Type) -> Result<Sa, E> {
    // state: (shift:[N], (idx:[N], enc))
    let shift = Sa::Pi1;
    let idx = comp(Sa::Pi1, Sa::Pi2);
    let enc = comp(Sa::Pi2, Sa::Pi2);

    // continue while some idx >> shift > 0
    let shifted = comp(
        maps(Scalar::Arith(ArithOp::Rshift)),
        comp(
            Sa::ZipF,
            pair(
                idx.clone(),
                comp(bcast_over(), pair(idx.clone(), shift.clone())),
            ),
        ),
    );
    let nonzero = sb::comp(
        Scalar::Cmp(CmpOp::Lt),
        sb::pairs(sb::comp(Scalar::Const(0), Scalar::Bang), Scalar::Id),
    );
    let any_high = comp(
        not_flat(),
        comp(
            Sa::EmptyTest,
            comp(
                Sa::Sigma1,
                comp(
                    maps(sb::comp(
                        sb::cases(Scalar::InlS(Type::Unit), Scalar::InrS(Type::Unit)),
                        sb::comp(nonzero, Scalar::Id),
                    )), // map λv. if v>0 then inl () else inr (): tag then σ1-nonempty
                    shifted.clone(),
                ),
            ),
        ),
    );
    let pred = any_high;

    // bit flags: ((i >> shift) & 1) = 0
    let bit0 = comp(
        maps(sb::comp(
            Scalar::Cmp(CmpOp::Eq),
            sb::pairs(
                sb::comp(
                    Scalar::Arith(ArithOp::Mod),
                    sb::pairs(Scalar::Id, sb::comp(Scalar::Const(2), Scalar::Bang)),
                ),
                sb::comp(Scalar::Const(0), Scalar::Bang),
            ),
        )),
        shifted,
    );

    let body = {
        let flags = bit0; // true = bit 0 → comes first (stable LSD)
        let idx0 = comp(pack_leaf(&Type::Nat), pair(idx.clone(), flags.clone()));
        let idx1 = comp(
            pack_leaf_false(&Type::Nat),
            pair(idx.clone(), flags.clone()),
        );
        let enc0 = comp(pack_enc(t)?, pair(flags.clone(), enc.clone()));
        let enc1 = comp(pack_enc_false(t)?, pair(flags, enc));
        pair(
            comp(
                maps(sb::comp(
                    Scalar::Arith(ArithOp::Add),
                    sb::pairs(Scalar::Id, sb::comp(Scalar::Const(1), Scalar::Bang)),
                )),
                shift,
            ),
            pair(
                comp(Sa::AppendF, pair(idx0, idx1)),
                comp(append_enc(t)?, pair(enc0, enc1)),
            ),
        )
    };

    // run the loop from shift = 0, return the encoding.  Indices are
    // u64 values, so after 64 single-bit passes `idx >> shift` is zero
    // everywhere and the predicate fails: at most 65 trips.
    Ok(comp(
        comp(Sa::Pi2, Sa::Pi2),
        comp(
            whilef_trip(pred, body, crate::trip::Trip::Const(65)),
            pair(const_seq(0), Sa::Id),
        ),
    ))
}

// ---------------------------------------------------------------------------
// The Map Lemma itself.
// ---------------------------------------------------------------------------

/// Computes `SEQ(f) : SEQ(dom) → SEQ(cod)` together with `cod`.
pub fn seq_lift(f: &Sa, dom: &Type) -> Res {
    match f {
        Sa::Id => Ok((Sa::Id, dom.clone())),
        Sa::Compose(g, f1) => {
            let (sf, mid) = seq_lift(f1, dom)?;
            let (sg, cod) = seq_lift(g, &mid)?;
            Ok((comp(sg, sf), cod))
        }
        Sa::Bang => Ok((zeros_like(dom)?, Type::Unit)),
        Sa::PairF(f1, f2) => {
            let (s1, c1) = seq_lift(f1, dom)?;
            let (s2, c2) = seq_lift(f2, dom)?;
            Ok((pair(s1, s2), Type::prod(c1, c2)))
        }
        Sa::Pi1 => match dom {
            Type::Prod(a, _) => Ok((Sa::Pi1, (**a).clone())),
            _ => Err(stuck("seq_lift pi1 domain")),
        },
        Sa::Pi2 => match dom {
            Type::Prod(_, b) => Ok((Sa::Pi2, (**b).clone())),
            _ => Err(stuck("seq_lift pi2 domain")),
        },
        Sa::InlF(right) => {
            let tags = comp(maps(sb::const_bool(true)), zeros_like(dom)?);
            let lifted = pair(tags, pair(Sa::Id, empty_enc(right)?));
            Ok((lifted, Type::sum(dom.clone(), right.clone())))
        }
        Sa::InrF(left) => {
            let tags = comp(maps(sb::const_bool(false)), zeros_like(dom)?);
            let lifted = pair(tags, pair(empty_enc(left)?, Sa::Id));
            Ok((lifted, Type::sum(left.clone(), dom.clone())))
        }
        Sa::SumCase(f1, f2) => match dom {
            Type::Sum(a, b) => {
                let (s1, c1) = seq_lift(f1, a)?;
                let (s2, c2) = seq_lift(f2, b)?;
                if c1 != c2 {
                    return Err(stuck("seq_lift sum case: branch codomains differ"));
                }
                // apply each branch to its side, then merge by the tags
                let tags = Sa::Pi1;
                let left = comp(s1, comp(Sa::Pi1, Sa::Pi2));
                let right = comp(s2, comp(Sa::Pi2, Sa::Pi2));
                let merged = comp(merge_enc(&c1)?, pair(tags, pair(left, right)));
                Ok((merged, c1))
            }
            _ => Err(stuck("seq_lift sum case domain")),
        },
        Sa::Dist => match dom {
            Type::Prod(sum_ty, t) => match &**sum_ty {
                Type::Sum(a, b) => {
                    // ((tags, (E1, E2)), Et) →
                    //   (tags, ((E1, pack Et true), (E2, pack Et false)))
                    let tags = comp(Sa::Pi1, Sa::Pi1);
                    let e1 = comp(Sa::Pi1, comp(Sa::Pi2, Sa::Pi1));
                    let e2 = comp(Sa::Pi2, comp(Sa::Pi2, Sa::Pi1));
                    let et = Sa::Pi2;
                    let t_true = comp(pack_enc(t)?, pair(tags.clone(), et.clone()));
                    let t_false = comp(pack_enc_false(t)?, pair(tags.clone(), et));
                    let lifted = pair(tags, pair(pair(e1, t_true), pair(e2, t_false)));
                    Ok((
                        lifted,
                        Type::sum(
                            Type::prod((**a).clone(), (**t).clone()),
                            Type::prod((**b).clone(), (**t).clone()),
                        ),
                    ))
                }
                _ => Err(stuck("seq_lift dist domain")),
            },
            _ => Err(stuck("seq_lift dist domain")),
        },
        Sa::OmegaF(cod) => {
            // Batched omega errors only when applied to a *nonempty* batch:
            // map(f) over zero elements performs zero applications.
            let is_empty = comp(super::flatten::seq_bool_is_zero(), count_enc(dom)?);
            Ok((
                iff(is_empty, empty_enc(cod)?, Sa::OmegaF(seq_type(cod))),
                cod.clone(),
            ))
        }
        Sa::MapScalar(phi) => match dom {
            Type::Seq(s) => {
                let s2 = super::scalar::scalar_cod(phi, s)?;
                Ok((
                    pair(Sa::Pi1, comp(Sa::MapScalar(phi.clone()), Sa::Pi2)),
                    Type::seq(s2),
                ))
            }
            _ => Err(stuck("seq_lift map scalar domain")),
        },
        Sa::EmptyF(s) => Ok((
            pair(zeros_like(dom)?, Sa::EmptyF(s.clone())),
            Type::seq(s.clone()),
        )),
        Sa::SingletonUnit => {
            // SEQ(unit) = [N] (zeros) → SEQ([unit]) = (ones, units)
            let ones = maps(Scalar::Const(1));
            let units = maps(Scalar::Bang);
            Ok((pair(ones, units), Type::seq(Type::Unit)))
        }
        Sa::AppendF => match dom {
            Type::Prod(a, _) => Ok((append_batchwise(a)?, (**a).clone())),
            _ => Err(stuck("seq_lift append domain")),
        },
        Sa::LengthF => {
            // per-element lengths as singleton batches:
            // SEQ([N]) = (ones, the segment descriptor)
            match dom {
                Type::Seq(_) => Ok((
                    pair(comp(maps(Scalar::Const(1)), Sa::Pi1), Sa::Pi1),
                    Type::seq(Type::Nat),
                )),
                _ => Err(stuck("seq_lift length domain")),
            }
        }
        Sa::EmptyTest => match dom {
            Type::Seq(_) => {
                // tags: len = 0; sides are unit-batches of matching counts.
                let is_empty = sb::comp(
                    Scalar::Cmp(CmpOp::Eq),
                    sb::pairs(Scalar::Id, sb::comp(Scalar::Const(0), Scalar::Bang)),
                );
                let tags = comp(maps(is_empty), Sa::Pi1);
                let t_side = comp(
                    maps(Scalar::Const(0)),
                    comp(pack_leaf(&Type::Nat), pair(Sa::Pi1, tags.clone())),
                );
                let f_side = comp(
                    maps(Scalar::Const(0)),
                    comp(pack_leaf_false(&Type::Nat), pair(Sa::Pi1, tags.clone())),
                );
                Ok((pair(tags, pair(t_side, f_side)), Type::bool_()))
            }
            _ => Err(stuck("seq_lift empty? domain")),
        },
        Sa::Sigma1 | Sa::Sigma2 => match dom {
            Type::Seq(s) => match &**s {
                Type::Sum(s1, s2) => {
                    let keep_left = matches!(f, Sa::Sigma1);
                    let kept_scalar = if keep_left { s1 } else { s2 };
                    // data' = σ(data) — packing is stable, segments stay
                    // contiguous; segs' = per-segment kept-count via
                    // prefix sums (see module docs on the log-time note).
                    let data = Sa::Pi2;
                    let segs = Sa::Pi1;
                    let packed = if keep_left {
                        comp(Sa::Sigma1, data.clone())
                    } else {
                        comp(Sa::Sigma2, data.clone())
                    };
                    let indicator = {
                        let one_if = if keep_left {
                            sb::cases(
                                sb::comp(Scalar::Const(1), Scalar::Bang),
                                sb::comp(Scalar::Const(0), Scalar::Bang),
                            )
                        } else {
                            sb::cases(
                                sb::comp(Scalar::Const(0), Scalar::Bang),
                                sb::comp(Scalar::Const(1), Scalar::Bang),
                            )
                        };
                        comp(maps(one_if), data)
                    };
                    let segs2 = comp(segment_totals(), pair(pair(indicator, segs.clone()), segs));
                    Ok((pair(segs2, packed), Type::seq((**kept_scalar).clone())))
                }
                _ => Err(stuck("seq_lift sigma domain element")),
            },
            _ => Err(stuck("seq_lift sigma domain")),
        },
        Sa::ZipF => match dom {
            Type::Prod(a, b) => match (&**a, &**b) {
                (Type::Seq(s1), Type::Seq(s2)) => {
                    let segs = comp(Sa::Pi1, Sa::Pi1);
                    let data = comp(
                        Sa::ZipF,
                        pair(comp(Sa::Pi2, Sa::Pi1), comp(Sa::Pi2, Sa::Pi2)),
                    );
                    Ok((
                        pair(segs, data),
                        Type::seq(Type::prod((**s1).clone(), (**s2).clone())),
                    ))
                }
                _ => Err(stuck("seq_lift zip domain")),
            },
            _ => Err(stuck("seq_lift zip domain")),
        },
        Sa::EnumerateF => match dom {
            Type::Seq(_) => {
                // per-segment enumerate: global enumerate − broadcast start
                let segs = Sa::Pi1;
                let data = Sa::Pi2;
                let starts = comp(
                    maps(Scalar::Arith(ArithOp::Monus)),
                    comp(
                        Sa::ZipF,
                        pair(comp(Sa::PrefixSum, segs.clone()), segs.clone()),
                    ),
                );
                let start_per_elem =
                    comp(Sa::BmRouteF, pair(pair(data.clone(), segs.clone()), starts));
                let inner = comp(
                    maps(Scalar::Arith(ArithOp::Monus)),
                    comp(Sa::ZipF, pair(comp(Sa::EnumerateF, data), start_per_elem)),
                );
                Ok((pair(segs, inner), Type::seq(Type::Nat)))
            }
            _ => Err(stuck("seq_lift enumerate domain")),
        },
        Sa::BmRouteF => match dom {
            // (([s],[N]),[s']) per element; "SEQ(bm-route) is an sbm-route"
            // — in this encoding it is simply the flat bm_route on data
            // with per-subsequence counts.
            Type::Prod(bc, vals) => match (&**bc, &**vals) {
                (Type::Prod(bnd, _), Type::Seq(sv)) => {
                    let Type::Seq(_) = &**bnd else {
                        return Err(stuck("seq_lift bm_route bound"));
                    };
                    let segs_u = comp(Sa::Pi1, comp(Sa::Pi1, Sa::Pi1));
                    let data_u = comp(Sa::Pi2, comp(Sa::Pi1, Sa::Pi1));
                    let data_d = comp(Sa::Pi2, comp(Sa::Pi2, Sa::Pi1));
                    let data_x = comp(Sa::Pi2, Sa::Pi2);
                    let routed = comp(Sa::BmRouteF, pair(pair(data_u, data_d), data_x));
                    Ok((pair(segs_u, routed), Type::seq((**sv).clone())))
                }
                _ => Err(stuck("seq_lift bm_route domain")),
            },
            _ => Err(stuck("seq_lift bm_route domain")),
        },
        Sa::SbmRouteF => match dom {
            Type::Prod(bc, ds) => match (&**bc, &**ds) {
                (Type::Prod(_, _), Type::Prod(dv, _)) => {
                    let Type::Seq(sv) = &**dv else {
                        return Err(stuck("seq_lift sbm_route data"));
                    };
                    let data_u = comp(Sa::Pi2, comp(Sa::Pi1, Sa::Pi1));
                    let data_c = comp(Sa::Pi2, comp(Sa::Pi2, Sa::Pi1));
                    let segs_c = comp(Sa::Pi1, comp(Sa::Pi2, Sa::Pi1));
                    let data_x = comp(Sa::Pi2, comp(Sa::Pi1, Sa::Pi2));
                    let data_m = comp(Sa::Pi2, comp(Sa::Pi2, Sa::Pi2));
                    let routed = comp(
                        Sa::SbmRouteF,
                        pair(pair(data_u, data_c.clone()), pair(data_x, data_m.clone())),
                    );
                    // output segment lengths: per-element Σ dᵢ·mᵢ
                    let products = comp(
                        maps(Scalar::Arith(ArithOp::Mul)),
                        comp(Sa::ZipF, pair(data_c, data_m)),
                    );
                    let segs_out = comp(
                        segment_totals(),
                        pair(pair(products, segs_c.clone()), segs_c),
                    );
                    Ok((pair(segs_out, routed), Type::seq((**sv).clone())))
                }
                _ => Err(stuck("seq_lift sbm_route domain")),
            },
            _ => Err(stuck("seq_lift sbm_route domain")),
        },
        Sa::While(p, g, trip) => {
            let (sp, pb) = seq_lift(p, dom)?;
            if !pb.is_bool() {
                return Err(stuck("seq_lift while predicate"));
            }
            let (sg, gc) = seq_lift(g, dom)?;
            if &gc != dom {
                return Err(stuck("seq_lift while body type"));
            }
            // A constant per-lane trip bound survives lifting: the
            // lockstep loop runs until every lane finishes, i.e. for the
            // maximum of the per-lane trip counts, still ≤ the constant.
            // Length-based bounds refer to a single lane's state and do
            // not transfer to the batched loop.
            let lifted_trip = match &**trip {
                crate::trip::Trip::Const(c) => crate::trip::Trip::Const(*c),
                _ => crate::trip::Trip::Unknown,
            };
            seq_while(dom, sp, sg, lifted_trip)
        }
        Sa::PrefixSum => {
            // Segmented scan: global scan minus the broadcast segment-start
            // offset (gathered from the zero-padded global scan).
            let segs = Sa::Pi1;
            let data = Sa::Pi2;
            let global = comp(Sa::PrefixSum, data.clone());
            let ends = comp(Sa::PrefixSum, segs.clone());
            let starts = comp(
                maps(Scalar::Arith(ArithOp::Monus)),
                comp(Sa::ZipF, pair(ends, segs.clone())),
            );
            let padded = comp(Sa::AppendF, pair(const_seq(0), global.clone()));
            let offsets = comp(gather_sorted(), pair(padded, starts));
            let per_elem = comp(
                Sa::BmRouteF,
                pair(pair(data.clone(), segs.clone()), offsets),
            );
            let out = comp(
                maps(Scalar::Arith(ArithOp::Monus)),
                comp(Sa::ZipF, pair(global, per_elem)),
            );
            Ok((pair(segs, out), Type::seq(Type::Nat)))
        }
    }
}

/// Batched append `SEQ([s]) × SEQ([s]) → SEQ([s])`, *per element* — each
/// pair of elements concatenates.  Segment lengths add elementwise; the
/// data interleaves segment-pairwise via the merge toolkit with
/// alternating flags expanded from the two segment descriptors.
fn append_batchwise(pair_ty: &Type) -> Result<Sa, E> {
    let Type::Seq(_) = pair_ty else {
        return Err(stuck("append_batchwise domain"));
    };
    let segs_a = comp(Sa::Pi1, Sa::Pi1);
    let data_a = comp(Sa::Pi2, Sa::Pi1);
    let segs_b = comp(Sa::Pi1, Sa::Pi2);
    let data_b = comp(Sa::Pi2, Sa::Pi2);
    let segs = comp(
        maps(Scalar::Arith(ArithOp::Add)),
        comp(Sa::ZipF, pair(segs_a.clone(), segs_b.clone())),
    );
    // alternating per-position flags [T,F,T,F,…] of length 2n, expanded by
    // the interleaved segment descriptor (A₀,B₀,A₁,B₁,…).
    let two_n = comp(Sa::AppendF, pair(segs_a.clone(), segs_b.clone()));
    let alt = comp(
        maps(sb::comp(
            sb::cases(Scalar::InlS(Type::Unit), Scalar::InrS(Type::Unit)),
            sb::comp(
                sb::comp(
                    Scalar::Cmp(CmpOp::Eq),
                    sb::pairs(
                        sb::comp(
                            Scalar::Arith(ArithOp::Mod),
                            sb::pairs(Scalar::Id, sb::comp(Scalar::Const(2), Scalar::Bang)),
                        ),
                        sb::comp(Scalar::Const(0), Scalar::Bang),
                    ),
                ),
                Scalar::Id,
            ),
        )),
        comp(Sa::EnumerateF, two_n.clone()),
    );
    // interleaved segments = merge the two seg descriptors by `alt`
    let inter_segs = comp(merge_leaf(), pair(alt.clone(), pair(segs_a, segs_b)));
    let bound = comp(Sa::AppendF, pair(data_a.clone(), data_b.clone()));
    let eflags = comp(Sa::BmRouteF, pair(pair(bound, inter_segs), alt));
    let data = comp(merge_leaf(), pair(eflags, pair(data_a, data_b)));
    Ok(pair(segs, data))
}

/// Segmented totals: `(([N] values, [N] segs), [N] segs) → [N]` — the sum
/// of `values` within each segment, via prefix sums sampled at segment
/// ends (`O(log n)` time; see module docs).
pub fn segment_totals() -> Sa {
    let values = comp(Sa::Pi1, Sa::Pi1);
    let segs = Sa::Pi2;
    // ends = prefix_sum(segs); starts = ends − segs
    let ends = comp(Sa::PrefixSum, segs.clone());
    let ps = comp(Sa::PrefixSum, values);
    // total(seg) = ps[end-1] − ps[start-1], with ps[-1] = 0:
    // gather ps at (end) and (start) positions of the *padded* scan
    // [0] @ ps (so position p reads prefix-before-p).
    let padded = comp(Sa::AppendF, pair(const_seq(0), ps));
    let starts = comp(
        maps(Scalar::Arith(ArithOp::Monus)),
        comp(Sa::ZipF, pair(ends.clone(), segs.clone())),
    );
    let at_ends = comp(gather_sorted(), pair(padded.clone(), ends));
    let at_starts = comp(gather_sorted(), pair(padded, starts));
    comp(
        maps(Scalar::Arith(ArithOp::Monus)),
        comp(Sa::ZipF, pair(at_ends, at_starts)),
    )
}

/// Figure 3's `index` as an SA composite: `[N] × [N]sorted-idx → [N]` —
/// gather `C` at ascending positions `I` (duplicates allowed), in `O(1)`
/// time and `O(n + k)` work.
pub fn gather_sorted() -> Sa {
    let c = Sa::Pi1;
    let i = Sa::Pi2;
    let n = comp(Sa::LengthF, c.clone());
    let k = comp(Sa::LengthF, i.clone());
    // delta_I = map(-)(zip(I@[n], [0]@I)); zero_to_k = enumerate(I)@[k]
    let delta_i = comp(
        maps(Scalar::Arith(ArithOp::Monus)),
        comp(
            Sa::ZipF,
            pair(
                comp(Sa::AppendF, pair(i.clone(), n)),
                comp(Sa::AppendF, pair(const_seq(0), i.clone())),
            ),
        ),
    );
    let zero_to_k = comp(Sa::AppendF, pair(comp(Sa::EnumerateF, i.clone()), k));
    // P = bm_route((C, delta_I), zero_to_k)
    let p = comp(Sa::BmRouteF, pair(pair(c.clone(), delta_i), zero_to_k));
    // delta_P = map(-)(zip(P, remove_last([0]@P)))
    let padded = comp(Sa::AppendF, pair(const_seq(0), p.clone()));
    // remove_last = pack where enumerate < len-1… use position < |P|:
    let keep = comp(
        maps(sb::comp(
            sb::cases(Scalar::InlS(Type::Unit), Scalar::InrS(Type::Unit)),
            sb::comp(Scalar::Cmp(CmpOp::Lt), Scalar::Id),
        )),
        comp(
            Sa::ZipF,
            pair(
                comp(Sa::EnumerateF, padded.clone()),
                comp(
                    bcast_over(),
                    pair(padded.clone(), comp(Sa::LengthF, p.clone())),
                ),
            ),
        ),
    );
    let removed_last = comp(pack_leaf(&Type::Nat), pair(padded, keep));
    let delta_p = comp(
        maps(Scalar::Arith(ArithOp::Monus)),
        comp(Sa::ZipF, pair(p, removed_last)),
    );
    // result = bm_route((I, delta_P), C)
    comp(Sa::BmRouteF, pair(pair(i, delta_p), c))
}

/// `SEQ(while(p, g))`: lockstep batched iteration with extraction.
///
/// State: `((act_idx, act), (done_idx, done))`.  Each round evaluates the
/// batched predicate, extracts the finished elements (σ-packing keeps
/// input order *within* the round), steps the survivors with `SEQ(g)`, and
/// appends the finished ones to the done-buffer; the final
/// [`reorder_enc`] restores global input order.
/// The simple (unstaged) batched while, public for the EXP-L72 ablation.
pub fn seq_while_simple(t: &Type, sp: Sa, sg: Sa) -> Res {
    seq_while(t, sp, sg, crate::trip::Trip::Unknown)
}

pub(crate) fn seq_while(t: &Type, sp: Sa, sg: Sa, trip: crate::trip::Trip) -> Res {
    let act_idx = comp(Sa::Pi1, Sa::Pi1);
    let act = comp(Sa::Pi2, Sa::Pi1);
    let done_idx = comp(Sa::Pi1, Sa::Pi2);
    let done = comp(Sa::Pi2, Sa::Pi2);

    let pred = comp(not_flat(), comp(Sa::EmptyTest, act_idx.clone()));

    // keep-flags: the batched predicate's tag vector (true = keep going)
    let kf = comp(Sa::Pi1, comp(sp, act.clone()));
    let body = {
        let kfv = kf.clone();
        let fin_idx = comp(
            pack_leaf_false(&Type::Nat),
            pair(act_idx.clone(), kfv.clone()),
        );
        let keep_idx = comp(pack_leaf(&Type::Nat), pair(act_idx.clone(), kfv.clone()));
        let fin = comp(pack_enc_false(t)?, pair(kfv.clone(), act.clone()));
        let keep = comp(pack_enc(t)?, pair(kfv, act.clone()));
        let stepped = comp(sg, keep);
        pair(
            pair(keep_idx, stepped),
            pair(
                comp(Sa::AppendF, pair(done_idx.clone(), fin_idx)),
                comp(append_enc(t)?, pair(done.clone(), fin)),
            ),
        )
    };

    // initial state: indices 0..n-1 active, nothing done
    let init = pair(
        pair(comp(Sa::EnumerateF, zeros_like(t)?), Sa::Id),
        pair(Sa::EmptyF(Type::Nat), empty_enc(t)?),
    );
    let after = comp(whilef_trip(pred, body, trip), init);
    let result = comp(
        reorder_enc(t)?,
        pair(comp(Sa::Pi1, Sa::Pi2), comp(Sa::Pi2, Sa::Pi2)),
    );
    Ok((comp(result, after), t.clone()))
}

#[cfg(test)]
mod tests {
    use super::super::apply_sa;
    use super::super::seq::{decode_batch, encode_batch};
    use super::*;
    use nsc_core::value::Value;

    fn nats(ns: &[u64]) -> Value {
        Value::nat_seq(ns.iter().copied())
    }

    fn flags(bs: &[bool]) -> Value {
        Value::seq(bs.iter().map(|b| Value::bool_(*b)).collect())
    }

    #[test]
    fn pack_leaf_keeps_true() {
        let f = pack_leaf(&Type::Nat);
        let arg = Value::pair(nats(&[10, 11, 12]), flags(&[true, false, true]));
        let (o, _) = apply_sa(&f, &arg).unwrap();
        assert_eq!(o, nats(&[10, 12]));
    }

    #[test]
    fn merge_leaf_is_example_d1() {
        // f = [T,F,F,T,F,T,T], x = [x0..x3], y = [y0..y2]
        let f = merge_leaf();
        let arg = Value::pair(
            flags(&[true, false, false, true, false, true, true]),
            Value::pair(nats(&[100, 101, 102, 103]), nats(&[200, 201, 202])),
        );
        let (o, _) = apply_sa(&f, &arg).unwrap();
        assert_eq!(o, nats(&[100, 200, 201, 101, 202, 102, 103]));
    }

    #[test]
    fn merge_leaf_degenerate_sides() {
        let f = merge_leaf();
        let all_true = Value::pair(flags(&[true, true]), Value::pair(nats(&[1, 2]), nats(&[])));
        assert_eq!(apply_sa(&f, &all_true).unwrap().0, nats(&[1, 2]));
        let all_false = Value::pair(flags(&[false]), Value::pair(nats(&[]), nats(&[9])));
        assert_eq!(apply_sa(&f, &all_false).unwrap().0, nats(&[9]));
    }

    #[test]
    fn pack_enc_nested_sequences() {
        // batch of [N] values: keep elements 0 and 2
        let t = Type::seq(Type::Nat);
        let batch = vec![nats(&[1, 2]), nats(&[3]), nats(&[4, 5, 6])];
        let enc = encode_batch(&batch, &t).unwrap();
        let f = pack_enc(&t).unwrap();
        let arg = Value::pair(flags(&[true, false, true]), enc);
        let (o, _) = apply_sa(&f, &arg).unwrap();
        let dec = decode_batch(&o, &t).unwrap();
        assert_eq!(dec, vec![nats(&[1, 2]), nats(&[4, 5, 6])]);
    }

    #[test]
    fn gather_sorted_matches_index() {
        let f = gather_sorted();
        let arg = Value::pair(nats(&[10, 11, 12, 13, 14]), nats(&[1, 3]));
        assert_eq!(apply_sa(&f, &arg).unwrap().0, nats(&[11, 13]));
        // duplicates allowed
        let arg = Value::pair(nats(&[10, 11, 12]), nats(&[0, 0, 2]));
        assert_eq!(apply_sa(&f, &arg).unwrap().0, nats(&[10, 10, 12]));
    }

    #[test]
    fn segment_totals_sums_per_segment() {
        let f = segment_totals();
        // values [1,2,3,4,5,6], segs [2,0,3,1] → [3,0,12,6]
        let arg = Value::pair(
            Value::pair(nats(&[1, 2, 3, 4, 5, 6]), nats(&[2, 0, 3, 1])),
            nats(&[2, 0, 3, 1]),
        );
        assert_eq!(apply_sa(&f, &arg).unwrap().0, nats(&[3, 0, 12, 6]));
    }

    #[test]
    fn reorder_restores_index_order() {
        let t = Type::seq(Type::Nat);
        let batch = vec![nats(&[30]), nats(&[10, 11]), nats(&[20])];
        let enc = encode_batch(&batch, &t).unwrap();
        // indices claim the batch is currently in order [2,0,1]
        let f = reorder_enc(&t).unwrap();
        let arg = Value::pair(nats(&[2, 0, 1]), enc);
        let (o, _) = apply_sa(&f, &arg).unwrap();
        let dec = decode_batch(&o, &t).unwrap();
        assert_eq!(dec, vec![nats(&[10, 11]), nats(&[20]), nats(&[30])]);
    }

    #[test]
    fn seq_lift_map_scalar_square() {
        // f = map-scalar(x*x) under SEQ: batch of [N] element-sequences.
        let t = Type::seq(Type::Nat);
        let phi = sb::comp(
            Scalar::Arith(ArithOp::Mul),
            sb::pairs(Scalar::Id, Scalar::Id),
        );
        let (lifted, cod) = seq_lift(&Sa::MapScalar(phi), &t).unwrap();
        assert_eq!(cod, t);
        let batch = vec![nats(&[1, 2]), nats(&[]), nats(&[3])];
        let enc = encode_batch(&batch, &t).unwrap();
        let (o, _) = apply_sa(&lifted, &enc).unwrap();
        assert_eq!(
            decode_batch(&o, &t).unwrap(),
            vec![nats(&[1, 4]), nats(&[]), nats(&[9])]
        );
    }

    #[test]
    fn seq_lift_while_batched_collatz_steps() {
        // per-element while: halve until zero (counts nothing, just runs
        // different numbers of iterations per element).
        // element type: [N] singleton; p: head > 0; g: head >> 1.
        let t = Type::seq(Type::Nat);
        let gt0 = sb::comp(
            Scalar::Cmp(CmpOp::Lt),
            sb::pairs(sb::comp(Scalar::Const(0), Scalar::Bang), Scalar::Id),
        );
        // p : [N] → B via tagging + emptiness
        let p = comp(
            not_flat(),
            comp(
                Sa::EmptyTest,
                comp(
                    Sa::Sigma1,
                    maps(sb::comp(
                        sb::cases(Scalar::InlS(Type::Unit), Scalar::InrS(Type::Unit)),
                        sb::comp(gt0, Scalar::Id),
                    )),
                ),
            ),
        );
        let g = maps(sb::comp(
            Scalar::Arith(ArithOp::Rshift),
            sb::pairs(Scalar::Id, sb::comp(Scalar::Const(1), Scalar::Bang)),
        ));
        let w = whilef(p, g);
        let (lifted, cod) = seq_lift(&w, &t).unwrap();
        assert_eq!(cod, t);
        // elements terminate after different iteration counts
        let batch = vec![nats(&[8]), nats(&[0]), nats(&[3]), nats(&[100])];
        let enc = encode_batch(&batch, &t).unwrap();
        let (o, _) = apply_sa(&lifted, &enc).unwrap();
        assert_eq!(
            decode_batch(&o, &t).unwrap(),
            vec![nats(&[0]), nats(&[0]), nats(&[0]), nats(&[0])]
        );
    }

    #[test]
    fn seq_lift_structure_independent_of_input() {
        // the lifted function is one fixed SA term (register count fixed)
        let t = Type::seq(Type::Nat);
        let (l1, _) = seq_lift(&Sa::Id, &t).unwrap();
        let s1 = format!("{l1}");
        let (l2, _) = seq_lift(&Sa::Id, &t).unwrap();
        assert_eq!(s1, format!("{l2}"));
    }
}

// ---------------------------------------------------------------------------
// The ε-staged batched while of Lemma 7.2 (two buffers V1, V2).
// ---------------------------------------------------------------------------

/// `[N]`-singleton comparison `0 < x` as flat `B`.
fn singleton_pos(x: Sa) -> Sa {
    comp(
        not_flat(),
        comp(
            Sa::EmptyTest,
            comp(
                Sa::Sigma1,
                comp(
                    maps(sb::comp(
                        sb::cases(Scalar::InlS(Type::Unit), Scalar::InrS(Type::Unit)),
                        sb::comp(
                            sb::comp(
                                Scalar::Cmp(CmpOp::Lt),
                                sb::pairs(sb::comp(Scalar::Const(0), Scalar::Bang), Scalar::Id),
                            ),
                            Scalar::Id,
                        ),
                    )),
                    x,
                ),
            ),
        ),
    )
}

/// Flat-`B` conjunction.
fn and_flat(a: Sa, b: Sa) -> Sa {
    iff(a, b, comp(Sa::InrF(Type::Unit), Sa::Bang))
}

/// One extraction round over `((idx, act), (buf_idx, buf))`: evaluate the
/// batched predicate, move the finished elements (with indices) into the
/// buffer, and step the survivors with `SEQ(g)`.
fn extraction_round(t: &Type, sp: &Sa, sg: &Sa, state: Sa) -> Result<Sa, E> {
    let idx = comp(Sa::Pi1, comp(Sa::Pi1, state.clone()));
    let act = comp(Sa::Pi2, comp(Sa::Pi1, state.clone()));
    let buf_idx = comp(Sa::Pi1, comp(Sa::Pi2, state.clone()));
    let buf = comp(Sa::Pi2, comp(Sa::Pi2, state));
    let kf = comp(Sa::Pi1, comp(sp.clone(), act.clone()));
    let fin_idx = comp(pack_leaf_false(&Type::Nat), pair(idx.clone(), kf.clone()));
    let keep_idx = comp(pack_leaf(&Type::Nat), pair(idx, kf.clone()));
    let fin = comp(pack_enc_false(t)?, pair(kf.clone(), act.clone()));
    let keep = comp(pack_enc(t)?, pair(kf, act));
    Ok(pair(
        pair(keep_idx, comp(sg.clone(), keep)),
        pair(
            comp(Sa::AppendF, pair(buf_idx, fin_idx)),
            comp(append_enc(t)?, pair(buf, fin)),
        ),
    ))
}

/// **Lemma 7.2, staged variant**: `SEQ(while(p, g))` with the paper's two
/// extra buffers.  The inner `while` extracts finished elements into `V1`
/// for `u` rounds; the outer `while` then flushes `V1` into `V2`, so `V2`
/// is touched only once per stage (`≈ R^{1/k}` stages for nesting
/// parameter `k`).  A probe loop (carrying only the active batch) counts
/// the total rounds `R` first, exactly as the paper computes `v` "by
/// simulating only the divide phase, without retaining the results".
///
/// The structure — two buffers, one nesting level — is independent of ε;
/// only the runtime stage width `u` changes, which is the register-count
/// independence Lemma 7.2 claims.
pub fn seq_while_staged(t: &Type, sp: Sa, sg: Sa, k: u32) -> Res {
    assert!(k >= 1);
    let zl = zeros_like(t)?;

    // Probe: rounds R with only the active batch carried.
    let probe = {
        let rounds = Sa::Pi1;
        let act = Sa::Pi2;
        let kf = comp(Sa::Pi1, comp(sp.clone(), act.clone()));
        let keep = comp(pack_enc(t)?, pair(kf, act.clone()));
        let pred = comp(not_flat(), comp(Sa::EmptyTest, comp(zl.clone(), act)));
        let body = pair(
            comp(
                maps(sb::comp(
                    Scalar::Arith(nsc_core::ast::ArithOp::Add),
                    sb::pairs(Scalar::Id, sb::comp(Scalar::Const(1), Scalar::Bang)),
                )),
                rounds,
            ),
            comp(sg.clone(), keep),
        );
        comp(
            Sa::Pi1,
            comp(whilef(pred, body), pair(const_seq(0), Sa::Id)),
        )
    };

    // u = 2^ceil((floor(log2(R+2)) + 1) / k)
    let u_of = {
        let add1 = |c: u64| {
            sb::comp(
                Scalar::Arith(nsc_core::ast::ArithOp::Add),
                sb::pairs(Scalar::Id, sb::comp(Scalar::Const(c), Scalar::Bang)),
            )
        };
        let log2s = sb::comp(
            Scalar::Arith(nsc_core::ast::ArithOp::Log2),
            sb::pairs(Scalar::Id, sb::comp(Scalar::Const(0), Scalar::Bang)),
        );
        let divk = sb::comp(
            Scalar::Arith(nsc_core::ast::ArithOp::Div),
            sb::pairs(Scalar::Id, sb::comp(Scalar::Const(k as u64), Scalar::Bang)),
        );
        let pow2 = sb::comp(
            Scalar::Arith(nsc_core::ast::ArithOp::Lshift),
            sb::pairs(sb::comp(Scalar::Const(1), Scalar::Bang), Scalar::Id),
        );
        comp(
            maps(sb::comp(
                pow2,
                sb::comp(divk, sb::comp(add1(k as u64), sb::comp(log2s, add1(2)))),
            )),
            probe,
        )
    };

    // Inner while over ((u, ctr), ((idx, act), (v1i, v1))).
    let inner = {
        let st = Sa::Id;
        let ctr = comp(Sa::Pi2, comp(Sa::Pi1, st.clone()));
        let act_part = comp(Sa::Pi2, st.clone());
        let act = comp(Sa::Pi2, comp(Sa::Pi1, act_part.clone()));
        let pred = and_flat(
            singleton_pos(ctr.clone()),
            comp(not_flat(), comp(Sa::EmptyTest, comp(zl.clone(), act))),
        );
        let dec = comp(
            maps(sb::comp(
                Scalar::Arith(nsc_core::ast::ArithOp::Monus),
                sb::pairs(Scalar::Id, sb::comp(Scalar::Const(1), Scalar::Bang)),
            )),
            ctr,
        );
        let body = pair(
            pair(comp(Sa::Pi1, comp(Sa::Pi1, st)), dec),
            extraction_round(t, &sp, &sg, act_part)?,
        );
        whilef(pred, body)
    };

    // Outer while over (inner_state, (v2i, v2)).
    let outer = {
        let in_st = Sa::Pi1;
        let act = comp(Sa::Pi2, comp(Sa::Pi1, comp(Sa::Pi2, in_st.clone())));
        let pred = comp(not_flat(), comp(Sa::EmptyTest, comp(zl.clone(), act)));
        // reset ctr := u and run the inner while on the inner state
        let u_sel = comp(Sa::Pi1, comp(Sa::Pi1, in_st.clone()));
        let reset = pair(pair(u_sel.clone(), u_sel), comp(Sa::Pi2, in_st.clone()));
        let ran = comp(inner, reset);
        // post-processing over (ran, v2pair): flush V1 into V2, empty V1
        let uc = comp(Sa::Pi1, Sa::Pi1);
        let ia = comp(Sa::Pi1, comp(Sa::Pi2, Sa::Pi1));
        let v1i = comp(Sa::Pi1, comp(Sa::Pi2, comp(Sa::Pi2, Sa::Pi1)));
        let v1 = comp(Sa::Pi2, comp(Sa::Pi2, comp(Sa::Pi2, Sa::Pi1)));
        let v2i = comp(Sa::Pi1, Sa::Pi2);
        let v2d = comp(Sa::Pi2, Sa::Pi2);
        let post = pair(
            pair(
                uc,
                pair(
                    ia,
                    pair(Sa::EmptyF(Type::Nat), comp(empty_enc(t)?, Sa::Bang)),
                ),
            ),
            pair(
                comp(Sa::AppendF, pair(v2i, v1i)),
                comp(append_enc(t)?, pair(v2d, v1)),
            ),
        );
        whilef(pred, comp(post, pair(ran, Sa::Pi2)))
    };

    // Assemble: probe u, init, run, final flush is implicit (inner ends
    // with empty actives; the last outer body still flushes), reorder V2.
    let init = pair(
        pair(
            pair(u_of.clone(), u_of),
            pair(
                pair(comp(Sa::EnumerateF, zl.clone()), Sa::Id),
                pair(Sa::EmptyF(Type::Nat), comp(empty_enc(t)?, Sa::Bang)),
            ),
        ),
        pair(Sa::EmptyF(Type::Nat), comp(empty_enc(t)?, Sa::Bang)),
    );
    let after = comp(outer, init);
    // All done elements are in V2 (outer only exits after a flush).
    let v2i = comp(Sa::Pi1, comp(Sa::Pi2, after.clone()));
    let v2d = comp(Sa::Pi2, comp(Sa::Pi2, after));
    let result = comp(reorder_enc(t)?, pair(v2i, v2d));
    Ok((result, t.clone()))
}

#[cfg(test)]
mod staged_tests {
    use super::super::apply_sa;
    use super::super::seq::{decode_batch, encode_batch};
    use super::*;
    use nsc_core::ast::{ArithOp, CmpOp};
    use nsc_core::value::Value;

    fn nats(ns: &[u64]) -> Value {
        Value::nat_seq(ns.iter().copied())
    }

    /// halve-until-zero components over [N] singleton-ish elements.
    fn halver() -> (Sa, Sa, Type) {
        let t = Type::seq(Type::Nat);
        let gt0 = sb::comp(
            Scalar::Cmp(CmpOp::Lt),
            sb::pairs(sb::comp(Scalar::Const(0), Scalar::Bang), Scalar::Id),
        );
        let p = comp(
            not_flat(),
            comp(
                Sa::EmptyTest,
                comp(
                    Sa::Sigma1,
                    maps(sb::comp(
                        sb::cases(Scalar::InlS(Type::Unit), Scalar::InrS(Type::Unit)),
                        sb::comp(gt0, Scalar::Id),
                    )),
                ),
            ),
        );
        let g = maps(sb::comp(
            Scalar::Arith(ArithOp::Rshift),
            sb::pairs(Scalar::Id, sb::comp(Scalar::Const(1), Scalar::Bang)),
        ));
        // lift p and g to batch level
        let (sp, _) = seq_lift(&p, &t).unwrap();
        let (sg, _) = seq_lift(&g, &t).unwrap();
        (sp, sg, t)
    }

    #[test]
    fn staged_while_agrees_with_simple() {
        let (sp, sg, t) = halver();
        let batch = vec![
            nats(&[8]),
            nats(&[0]),
            nats(&[100]),
            nats(&[3]),
            nats(&[17]),
        ];
        let enc = encode_batch(&batch, &t).unwrap();
        for k in 1..=3 {
            let (staged, _) = seq_while_staged(&t, sp.clone(), sg.clone(), k).unwrap();
            let (o, _) = apply_sa(&staged, &enc).unwrap();
            assert_eq!(decode_batch(&o, &t).unwrap(), vec![nats(&[0]); 5], "k={k}");
        }
    }

    #[test]
    #[ignore]
    fn probe_constants() {
        // decrement stepper: element value v runs v rounds
        let t = Type::seq(Type::Nat);
        let gt0 = sb::comp(
            Scalar::Cmp(CmpOp::Lt),
            sb::pairs(sb::comp(Scalar::Const(0), Scalar::Bang), Scalar::Id),
        );
        let p = comp(
            not_flat(),
            comp(
                Sa::EmptyTest,
                comp(
                    Sa::Sigma1,
                    maps(sb::comp(
                        sb::cases(Scalar::InlS(Type::Unit), Scalar::InrS(Type::Unit)),
                        sb::comp(gt0, Scalar::Id),
                    )),
                ),
            ),
        );
        let g = maps(sb::comp(
            Scalar::Arith(ArithOp::Monus),
            sb::pairs(Scalar::Id, sb::comp(Scalar::Const(1), Scalar::Bang)),
        ));
        let (sp, _) = seq_lift(&p, &t).unwrap();
        let (sg, _) = seq_lift(&g, &t).unwrap();
        let (simple, _) =
            super::seq_while(&t, sp.clone(), sg.clone(), crate::trip::Trip::Unknown).unwrap();
        let (staged, _) = seq_while_staged(&t, sp, sg, 2).unwrap();
        for (fatlen, rounds) in [(60u64, 200u64), (60, 800), (200, 800), (60, 3000)] {
            let batch: Vec<Value> = (0..16u64)
                .map(|i| {
                    if i == 7 {
                        nats(&[rounds])
                    } else {
                        nats(&vec![1u64; fatlen as usize])
                    }
                })
                .collect();
            let enc = encode_batch(&batch, &t).unwrap();
            let (_, cs) = apply_sa(&simple, &enc).unwrap();
            let (_, cg) = apply_sa(&staged, &enc).unwrap();
            eprintln!(
                "fat={fatlen} R={rounds}: simple W={} staged W={}",
                cs.work, cg.work
            );
        }
    }

    /// Payload-heavy early finishers + one long straggler: the simple
    /// loop re-touches the big done-buffer on every one of the R rounds,
    /// while staging flushes V1 into V2 once per stage — the regime
    /// Lemma 7.2's two-buffer argument targets.  The staging also *pays*
    /// a probe pass (≈ 2× the stepping work), so the win only appears
    /// once `R × buffer` dominates; measured constants put the crossover
    /// near `fat = 200, R = 800` (see `probe_constants`).  Expensive in
    /// debug builds, hence ignored by default; EXP-L72 reports the same
    /// ablation from the release harness.
    #[test]
    #[ignore]
    fn staged_reduces_buffer_churn_on_stragglers() {
        let t = Type::seq(Type::Nat);
        let gt0 = sb::comp(
            Scalar::Cmp(CmpOp::Lt),
            sb::pairs(sb::comp(Scalar::Const(0), Scalar::Bang), Scalar::Id),
        );
        let p = comp(
            not_flat(),
            comp(
                Sa::EmptyTest,
                comp(
                    Sa::Sigma1,
                    maps(sb::comp(
                        sb::cases(Scalar::InlS(Type::Unit), Scalar::InrS(Type::Unit)),
                        sb::comp(gt0, Scalar::Id),
                    )),
                ),
            ),
        );
        let g = maps(sb::comp(
            Scalar::Arith(ArithOp::Monus),
            sb::pairs(Scalar::Id, sb::comp(Scalar::Const(1), Scalar::Bang)),
        ));
        let (sp, _) = seq_lift(&p, &t).unwrap();
        let (sg, _) = seq_lift(&g, &t).unwrap();
        let batch: Vec<Value> = (0..16u64)
            .map(|i| {
                if i == 7 {
                    nats(&[800])
                } else {
                    nats(&vec![1u64; 200])
                }
            })
            .collect();
        let enc = encode_batch(&batch, &t).unwrap();
        let (simple, _) =
            super::seq_while(&t, sp.clone(), sg.clone(), crate::trip::Trip::Unknown).unwrap();
        let (staged, _) = seq_while_staged(&t, sp, sg, 2).unwrap();
        let (o1, c_simple) = apply_sa(&simple, &enc).unwrap();
        let (o2, c_staged) = apply_sa(&staged, &enc).unwrap();
        assert_eq!(o1, o2);
        assert!(
            c_staged.work < c_simple.work,
            "staging must beat per-round buffer churn: staged {} vs simple {}",
            c_staged.work,
            c_simple.work
        );
    }
}
