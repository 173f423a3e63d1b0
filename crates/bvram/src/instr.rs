//! The BVRAM instruction set (section 2 of the paper).
//!
//! A BVRAM has a *fixed* number of vector registers `V1, …, Vr`, each
//! holding a finite sequence of naturals.  Scalars are length-1 vectors.
//! The communication primitives are deliberately weaker than the VRAM's:
//! there is **no general permutation**, only monotone routing
//! (`bm_route`/`sbm_route`), append, and the packing selection `σ` — all
//! implementable with oblivious routing on a butterfly (Proposition 2.1).

use std::fmt;

/// A register index.
///
/// A *program's* register count is fixed (the BVRAM property); `u32`
/// leaves room for large generated programs, whose straight-line register
/// allocation does not yet reuse registers (see `nsc-compile`).
pub type Reg = u32;

/// A jump target (instruction index after label resolution).
pub type Label = u32;

/// Elementwise arithmetic operations (the paper's parameter set `Σ`).
///
/// The paper explicitly requires `+`, monus, `*`, `/`, `right-shift`,
/// `log2` for Theorems 4.2 and 7.1; comparisons (returning 0/1) are
/// NC-safe additions used by compiled conditionals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Addition.
    Add,
    /// Monus (`m −̇ n`).
    Monus,
    /// Multiplication.
    Mul,
    /// Division (`m / 0` is a machine error).
    Div,
    /// Remainder.
    Mod,
    /// Right shift (`0` once the shift reaches 64).
    Rshift,
    /// Left shift; a fault when a set bit would be shifted out.
    Lshift,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// `⌊log2 m⌋` (`0` for `m = 0`); the second operand is ignored.
    Log2,
    /// Equality as 0/1.
    Eq,
    /// Less-or-equal as 0/1.
    Le,
    /// Strictly-less as 0/1.
    Lt,
}

impl Op {
    /// Applies the operation; `None` for the partial cases.  This is the
    /// only definition of BVRAM arithmetic: the interpreter's element
    /// loops call it with a constant `self`, so the match folds away.
    #[inline]
    pub fn apply(self, m: u64, n: u64) -> Option<u64> {
        match self {
            Op::Add => m.checked_add(n),
            Op::Monus => Some(m.saturating_sub(n)),
            Op::Mul => m.checked_mul(n),
            Op::Div => m.checked_div(n),
            Op::Mod => m.checked_rem(n),
            Op::Rshift => Some(if n >= 64 { 0 } else { m >> n }),
            // Faults iff a set bit is shifted out: `m ≠ 0` and `m·2ⁿ ≥ 2⁶⁴`.
            Op::Lshift => match m {
                0 => Some(0),
                _ if n > u64::from(m.leading_zeros()) => None,
                _ => Some(m << n),
            },
            Op::Min => Some(m.min(n)),
            Op::Max => Some(m.max(n)),
            Op::Log2 => Some(if m == 0 {
                0
            } else {
                63 - m.leading_zeros() as u64
            }),
            Op::Eq => Some((m == n) as u64),
            Op::Le => Some((m <= n) as u64),
            Op::Lt => Some((m < n) as u64),
        }
    }

    /// Mnemonic used by the disassembler.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Op::Add => "add",
            Op::Monus => "monus",
            Op::Mul => "mul",
            Op::Div => "div",
            Op::Mod => "mod",
            Op::Rshift => "rshift",
            Op::Lshift => "lshift",
            Op::Min => "min",
            Op::Max => "max",
            Op::Log2 => "log2",
            Op::Eq => "eq",
            Op::Le => "le",
            Op::Lt => "lt",
        }
    }
}

/// One BVRAM instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instr {
    /// `Vdst ← Vsrc`.
    Move {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `Vdst ← Va op Vb`, elementwise; `Va` and `Vb` must have equal length.
    Arith {
        /// Destination register.
        dst: Reg,
        /// The operation.
        op: Op,
        /// Left operand register.
        a: Reg,
        /// Right operand register.
        b: Reg,
    },
    /// `Vdst ← ()` — load the empty sequence.
    Empty {
        /// Destination register.
        dst: Reg,
    },
    /// `Vdst ← [n]` — load a singleton.
    Singleton {
        /// Destination register.
        dst: Reg,
        /// The constant.
        n: u64,
    },
    /// `Vdst ← Va @ Vb`.
    Append {
        /// Destination register.
        dst: Reg,
        /// First operand.
        a: Reg,
        /// Second operand.
        b: Reg,
    },
    /// `Vdst ← [length(Vsrc)]`.
    Length {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `Vdst ← [0, 1, …, length(Vsrc) − 1]`.
    Enumerate {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `Vdst ← bm_route(Vbound, Vcounts, Vvalues)`: element `i` of
    /// `Vvalues` is replicated `Vcounts[i]` times; requires
    /// `len(Vcounts) = len(Vvalues)` and `Σ Vcounts = len(Vbound)`
    /// (the bound makes the routing *monotone* and constant-time).
    BmRoute {
        /// Destination register.
        dst: Reg,
        /// Bound register (fixes the output length).
        bound: Reg,
        /// Replication counts.
        counts: Reg,
        /// Values to replicate.
        values: Reg,
    },
    /// `Vdst ← sbm_route(Vbound, Vcounts, Vdata, Vsegs)`: the nested
    /// sequence `(Vdata, Vsegs)` has its `i`-th *subsequence* replicated
    /// `Vcounts[i]` times; `(Vbound, Vcounts)` is itself a nested sequence
    /// (so `Σ Vcounts = len(Vbound)`), and `len(Vcounts) = len(Vsegs)`.
    /// With singleton `Vcounts`/`Vsegs` this computes a cartesian product.
    SbmRoute {
        /// Destination register.
        dst: Reg,
        /// Bound data register.
        bound: Reg,
        /// Replication counts (segment descriptor of the bound).
        counts: Reg,
        /// Values data register.
        data: Reg,
        /// Segment lengths of the values.
        segs: Reg,
    },
    /// `Vdst ← σ(Vsrc)` — pack the nonzero values of `Vsrc`.
    Select {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// Unconditional jump.
    Goto {
        /// Target instruction index.
        target: Label,
    },
    /// `if empty?(Vreg) then goto target`.
    IfEmptyGoto {
        /// The register tested for emptiness.
        reg: Reg,
        /// Target instruction index.
        target: Label,
    },
    /// Stop the program.
    Halt,
}

/// The registers one instruction reads, held inline (no instruction
/// reads more than four), so asking costs no allocation.  Derefs to
/// `&[Reg]` and iterates by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inputs {
    regs: [Reg; 4],
    len: u8,
}

impl Inputs {
    fn new<const N: usize>(read: [Reg; N]) -> Inputs {
        let mut regs = [0; 4];
        regs[..N].copy_from_slice(&read);
        Inputs { regs, len: N as u8 }
    }
}

impl std::ops::Deref for Inputs {
    type Target = [Reg];

    fn deref(&self) -> &[Reg] {
        &self.regs[..usize::from(self.len)]
    }
}

impl IntoIterator for Inputs {
    type Item = Reg;
    type IntoIter = std::iter::Take<std::array::IntoIter<Reg, 4>>;

    fn into_iter(self) -> Self::IntoIter {
        self.regs.into_iter().take(usize::from(self.len))
    }
}

impl Instr {
    /// The registers this instruction reads.
    pub fn inputs(&self) -> Inputs {
        match *self {
            Instr::Move { src, .. }
            | Instr::Length { src, .. }
            | Instr::Enumerate { src, .. }
            | Instr::Select { src, .. } => Inputs::new([src]),
            Instr::Arith { a, b, .. } | Instr::Append { a, b, .. } => Inputs::new([a, b]),
            Instr::BmRoute {
                bound,
                counts,
                values,
                ..
            } => Inputs::new([bound, counts, values]),
            Instr::SbmRoute {
                bound,
                counts,
                data,
                segs,
                ..
            } => Inputs::new([bound, counts, data, segs]),
            Instr::IfEmptyGoto { reg, .. } => Inputs::new([reg]),
            Instr::Empty { .. } | Instr::Singleton { .. } | Instr::Goto { .. } | Instr::Halt => {
                Inputs::new([])
            }
        }
    }

    /// Rewrites every register operand (inputs and output) through `f`.
    /// Jump targets are left untouched.
    pub fn rename_regs(&mut self, mut f: impl FnMut(Reg) -> Reg) {
        match self {
            Instr::Move { dst, src }
            | Instr::Length { dst, src }
            | Instr::Enumerate { dst, src }
            | Instr::Select { dst, src } => {
                *dst = f(*dst);
                *src = f(*src);
            }
            Instr::Arith { dst, a, b, .. } | Instr::Append { dst, a, b } => {
                *dst = f(*dst);
                *a = f(*a);
                *b = f(*b);
            }
            Instr::Empty { dst } | Instr::Singleton { dst, .. } => *dst = f(*dst),
            Instr::BmRoute {
                dst,
                bound,
                counts,
                values,
            } => {
                *dst = f(*dst);
                *bound = f(*bound);
                *counts = f(*counts);
                *values = f(*values);
            }
            Instr::SbmRoute {
                dst,
                bound,
                counts,
                data,
                segs,
            } => {
                *dst = f(*dst);
                *bound = f(*bound);
                *counts = f(*counts);
                *data = f(*data);
                *segs = f(*segs);
            }
            Instr::IfEmptyGoto { reg, .. } => *reg = f(*reg),
            Instr::Goto { .. } | Instr::Halt => {}
        }
    }

    /// The register this instruction writes, if any.
    pub fn output(&self) -> Option<Reg> {
        match self {
            Instr::Move { dst, .. }
            | Instr::Arith { dst, .. }
            | Instr::Empty { dst }
            | Instr::Singleton { dst, .. }
            | Instr::Append { dst, .. }
            | Instr::Length { dst, .. }
            | Instr::Enumerate { dst, .. }
            | Instr::BmRoute { dst, .. }
            | Instr::SbmRoute { dst, .. }
            | Instr::Select { dst, .. } => Some(*dst),
            Instr::Goto { .. } | Instr::IfEmptyGoto { .. } | Instr::Halt => None,
        }
    }

    /// Whether this is a routing/packing instruction (`bm_route`,
    /// `sbm_route`, `select`, `append`) — the ones whose element offsets
    /// come from a prefix scan rather than from the element's own index.
    pub fn is_routing(&self) -> bool {
        matches!(
            self,
            Instr::BmRoute { .. }
                | Instr::SbmRoute { .. }
                | Instr::Select { .. }
                | Instr::Append { .. }
        )
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Move { dst, src } => write!(f, "v{dst} <- v{src}"),
            Instr::Arith { dst, op, a, b } => {
                write!(f, "v{dst} <- {} v{a} v{b}", op.mnemonic())
            }
            Instr::Empty { dst } => write!(f, "v{dst} <- []"),
            Instr::Singleton { dst, n } => write!(f, "v{dst} <- [{n}]"),
            Instr::Append { dst, a, b } => write!(f, "v{dst} <- append v{a} v{b}"),
            Instr::Length { dst, src } => write!(f, "v{dst} <- length v{src}"),
            Instr::Enumerate { dst, src } => write!(f, "v{dst} <- enumerate v{src}"),
            Instr::BmRoute {
                dst,
                bound,
                counts,
                values,
            } => write!(f, "v{dst} <- bm_route v{bound} v{counts} v{values}"),
            Instr::SbmRoute {
                dst,
                bound,
                counts,
                data,
                segs,
            } => write!(f, "v{dst} <- sbm_route v{bound} v{counts} v{data} v{segs}"),
            Instr::Select { dst, src } => write!(f, "v{dst} <- select v{src}"),
            Instr::Goto { target } => write!(f, "goto {target}"),
            Instr::IfEmptyGoto { reg, target } => write!(f, "if_empty v{reg} goto {target}"),
            Instr::Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_semantics() {
        assert_eq!(Op::Monus.apply(3, 7), Some(0));
        assert_eq!(Op::Div.apply(7, 0), None);
        assert_eq!(Op::Log2.apply(9, 0), Some(3));
        assert_eq!(Op::Eq.apply(3, 3), Some(1));
        assert_eq!(Op::Lt.apply(3, 3), Some(0));
    }

    #[test]
    fn shifts_at_the_64_bit_edge() {
        const MAX: u64 = u64::MAX;
        assert_eq!(Op::Rshift.apply(MAX, 63), Some(1));
        assert_eq!(Op::Rshift.apply(MAX, 64), Some(0));
        assert_eq!(Op::Rshift.apply(MAX, 1 << 32), Some(0));
        assert_eq!(Op::Lshift.apply(1, 63), Some(1 << 63));
        assert_eq!(Op::Lshift.apply(3, 62), Some(3 << 62));
        assert_eq!(Op::Lshift.apply(3, 63), None);
        assert_eq!(Op::Lshift.apply(1, 64), None);
        assert_eq!(Op::Lshift.apply(5, 1 << 32), None);
        assert_eq!(Op::Lshift.apply(MAX, 0), Some(MAX));
        assert_eq!(Op::Lshift.apply(MAX, 1), None);
        assert_eq!(Op::Lshift.apply(0, 64), Some(0));
        assert_eq!(Op::Lshift.apply(0, MAX), Some(0));
    }

    #[test]
    fn io_register_sets() {
        let i = Instr::BmRoute {
            dst: 0,
            bound: 1,
            counts: 2,
            values: 3,
        };
        assert_eq!(*i.inputs(), [1, 2, 3]);
        assert_eq!(i.inputs().into_iter().collect::<Vec<_>>(), [1, 2, 3]);
        assert_eq!(i.output(), Some(0));
        assert!(Instr::Halt.inputs().is_empty());
        assert_eq!(Instr::Halt.output(), None);
    }

    #[test]
    fn display_is_assembly_like() {
        let i = Instr::Arith {
            dst: 2,
            op: Op::Add,
            a: 0,
            b: 1,
        };
        assert_eq!(i.to_string(), "v2 <- add v0 v1");
    }
}
