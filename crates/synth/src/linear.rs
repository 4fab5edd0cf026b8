//! An exact normal-form decision procedure for lifting queries.
//!
//! Lane 0 of most lifting queries is, on both sides, an integer polynomial
//! in the input cells once wrap-around and the few non-arithmetic nodes are
//! accounted for: widening multiply-add chains against `vs-mpy-add` /
//! `vv-mpy-add` candidates, rounding and saturating narrows of such sums,
//! and min/max/absd over them. This module computes a canonical *normal
//! form* for each side — an integer polynomial over *atoms* — and compares
//! the forms, which decides the query without the bit-blasting solver.
//!
//! An atom is a cell (a vector load's lane-0 element or a runtime scalar)
//! or a canonical node whose children are normal forms: `floor(p / 2^k)`,
//! `min`/`max` (children sorted), `|p|` (sign normalized), a clamp, or the
//! wrapped value of `p` in a type. Every form carries a sound value
//! interval. A typed operation whose interval fits its type is exact
//! integer arithmetic; one that may wrap is kept modulo `2^bits` and only
//! becomes a `Wrap` atom when a later node (a shift, a widening, a min, a
//! clamp) needs its exact value. A rounding narrow's bias add wraps at the
//! source width, exactly as the interpreter and the SMT encoding do, so it
//! follows the same rule.
//!
//! Verdicts: equal forms prove equivalence at every lane (cell names are
//! lane-relative, so the lane-`k` forms are renamings of the lane-0 ones).
//! Unequal forms disprove it only when both sides are exact affine forms
//! in the cells — the original linear procedure's domain, where distinct
//! coefficients mean distinct functions. Anything else is left to the
//! solver.

use std::cmp::Ordering;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use halide_ir::{BinOp, Expr, ShiftDir};
use lanes::ElemType;
use uber_ir::{ScalarSource, UberExpr};

use crate::encode::{cell_var, scalar_var};

/// Largest polynomial the procedure builds; bigger queries go to the solver.
const MAX_TERMS: usize = 4096;

/// A product of atoms in sorted order (a repeated atom is a power). The
/// empty monomial is the constant term.
type Monomial = Vec<Atom>;

/// An integer polynomial: monomial → coefficient, with no zero entries.
type Poly = BTreeMap<Monomial, i128>;

/// The indivisible values a normal form is a polynomial over.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Atom {
    /// An input cell, with the type that bounds it.
    Cell(String, ElemType),
    /// `floor(p / 2^k)`, `k > 0`.
    FloorShr(NormalForm, u32),
    /// `min(a, b)`, children in form order.
    Min(NormalForm, NormalForm),
    /// `max(a, b)`, children in form order.
    Max(NormalForm, NormalForm),
    /// `|p|`, with `p`'s first non-constant coefficient positive.
    Abs(NormalForm),
    /// `clamp(p, lo, hi)`; an inactive bound is `i128::MIN` / `i128::MAX`.
    Clamp(NormalForm, i128, i128),
    /// The value of `p` wrapped into a type (`p` reduced modulo its width).
    Wrap(Poly, ElemType),
}

impl Atom {
    /// Sound value interval.
    fn range(&self) -> (i128, i128) {
        match self {
            Atom::Cell(_, ty) | Atom::Wrap(_, ty) => type_range(*ty),
            Atom::FloorShr(p, k) => (p.lo >> k, p.hi >> k),
            Atom::Min(a, b) => (a.lo.min(b.lo), a.hi.min(b.hi)),
            Atom::Max(a, b) => (a.lo.max(b.lo), a.hi.max(b.hi)),
            Atom::Abs(p) => (0, (-p.lo).max(p.hi)),
            Atom::Clamp(p, lo, hi) => (p.lo.clamp(*lo, *hi), p.hi.clamp(*lo, *hi)),
        }
    }
}

fn type_range(ty: ElemType) -> (i128, i128) {
    (i128::from(ty.min_value()), i128::from(ty.max_value()))
}

/// An exact normal form: an integer polynomial over atoms plus a sound
/// interval for its value. Forms compare by polynomial alone; the interval
/// is a by-product of how the form was built.
#[derive(Debug, Clone)]
pub struct NormalForm {
    poly: Poly,
    lo: i128,
    hi: i128,
}

impl PartialEq for NormalForm {
    fn eq(&self, other: &NormalForm) -> bool {
        self.poly == other.poly
    }
}

impl Eq for NormalForm {}

impl PartialOrd for NormalForm {
    fn partial_cmp(&self, other: &NormalForm) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for NormalForm {
    fn cmp(&self, other: &NormalForm) -> Ordering {
        self.poly.cmp(&other.poly)
    }
}

impl NormalForm {
    /// A form for `poly`, its interval evaluated term by term and, when
    /// the caller knows one, intersected with the operation's own bound.
    /// `None` if the polynomial is too large or its interval overflows.
    fn new(poly: Poly, bound: Option<(i128, i128)>) -> Option<NormalForm> {
        if poly.len() > MAX_TERMS {
            return None;
        }
        let (mut lo, mut hi) = (0i128, 0i128);
        for (mono, &c) in &poly {
            let (mut mlo, mut mhi) = (c, c);
            for atom in mono {
                (mlo, mhi) = mul_range((mlo, mhi), atom.range())?;
            }
            lo = lo.checked_add(mlo.min(mhi))?;
            hi = hi.checked_add(mlo.max(mhi))?;
        }
        if let Some((blo, bhi)) = bound {
            (lo, hi) = (lo.max(blo), hi.min(bhi));
        }
        Some(NormalForm { poly, lo, hi })
    }

    fn constant(v: i128) -> NormalForm {
        let poly = if v == 0 { Poly::new() } else { Poly::from([(Vec::new(), v)]) };
        NormalForm { poly, lo: v, hi: v }
    }

    fn atom(atom: Atom) -> Option<NormalForm> {
        NormalForm::new(Poly::from([(vec![atom], 1)]), None)
    }

    fn cell(name: String, ty: ElemType) -> Option<NormalForm> {
        NormalForm::atom(Atom::Cell(name, ty))
    }

    fn as_constant(&self) -> Option<i128> {
        match self.poly.iter().next() {
            None => Some(0),
            Some((m, &c)) if m.is_empty() && self.poly.len() == 1 => Some(c),
            Some(_) => None,
        }
    }

    /// The atom this form consists of, if it is exactly `1·atom`.
    fn single_atom(&self) -> Option<&Atom> {
        match self.poly.iter().next() {
            Some((m, 1)) if m.len() == 1 && self.poly.len() == 1 => m.first(),
            _ => None,
        }
    }

    fn fits(&self, ty: ElemType) -> bool {
        let (lo, hi) = type_range(ty);
        self.lo >= lo && self.hi <= hi
    }

    /// Whether the form is affine in the cells (degree ≤ 1, no other atom).
    fn is_affine(&self) -> bool {
        self.poly.keys().all(|m| matches!(m.as_slice(), [] | [Atom::Cell(..)]))
    }

    /// `self + sign * other`.
    fn add(&self, other: &NormalForm, sign: i128) -> Option<NormalForm> {
        let mut poly = self.poly.clone();
        for (m, &c) in &other.poly {
            add_term(&mut poly, m.clone(), sign.checked_mul(c)?)?;
        }
        let (olo, ohi) = if sign >= 0 { (other.lo, other.hi) } else { (-other.hi, -other.lo) };
        let bound = self.lo.checked_add(olo).zip(self.hi.checked_add(ohi));
        NormalForm::new(poly, bound)
    }

    fn mul(&self, other: &NormalForm) -> Option<NormalForm> {
        let poly = mul_poly(&self.poly, &other.poly)?;
        let bound = mul_range((self.lo, self.hi), (other.lo, other.hi));
        NormalForm::new(poly, bound)
    }

    fn scale(&self, c: i128) -> Option<NormalForm> {
        self.mul(&NormalForm::constant(c))
    }
}

/// Interval product, `None` on overflow.
fn mul_range((alo, ahi): (i128, i128), (blo, bhi): (i128, i128)) -> Option<(i128, i128)> {
    let corners = [
        alo.checked_mul(blo)?,
        alo.checked_mul(bhi)?,
        ahi.checked_mul(blo)?,
        ahi.checked_mul(bhi)?,
    ];
    Some((*corners.iter().min()?, *corners.iter().max()?))
}

/// `poly += c * mono`, keeping zero coefficients out.
fn add_term(poly: &mut Poly, mono: Monomial, c: i128) -> Option<()> {
    match poly.entry(mono) {
        Entry::Vacant(e) => {
            if c != 0 {
                e.insert(c);
            }
        }
        Entry::Occupied(mut e) => {
            let v = e.get().checked_add(c)?;
            if v == 0 {
                e.remove();
            } else {
                *e.get_mut() = v;
            }
        }
    }
    Some(())
}

fn mul_poly(a: &Poly, b: &Poly) -> Option<Poly> {
    if a.len().saturating_mul(b.len()) > MAX_TERMS {
        return None;
    }
    let mut out = Poly::new();
    for (ma, &ca) in a {
        for (mb, &cb) in b {
            let mut mono: Monomial = ma.iter().chain(mb).cloned().collect();
            mono.sort();
            add_term(&mut out, mono, ca.checked_mul(cb)?)?;
        }
    }
    Some(out)
}

/// `p` reduced modulo `2^bits`: wraps at least that wide are replaced by
/// their (congruent) argument, and coefficients land in `[0, 2^bits)`.
fn reduce(p: &Poly, bits: u32) -> Option<Poly> {
    let modulus = 1i128 << bits;
    let mut out = Poly::new();
    for (mono, &c) in p {
        let mut term = Poly::from([(Vec::new(), c.rem_euclid(modulus))]);
        let mut rest = Vec::new();
        for atom in mono {
            match atom {
                Atom::Wrap(inner, ty) if ty.bits() >= bits => {
                    term = mul_poly(&term, &reduce(inner, bits)?)?;
                    term.values_mut().for_each(|v| *v = v.rem_euclid(modulus));
                }
                _ => rest.push(atom.clone()),
            }
        }
        for (m, v) in mul_poly(&term, &Poly::from([(rest, 1)]))? {
            add_term(&mut out, m, v)?;
        }
    }
    out.retain(|_, v| {
        *v = v.rem_euclid(modulus);
        *v != 0
    });
    Some(out)
}

/// `floor(p / 2^k)`.
fn floor_shr(p: NormalForm, k: u32) -> Option<NormalForm> {
    if k == 0 {
        return Some(p);
    }
    let d = 1i128 << k;
    if p.poly.values().all(|c| c % d == 0) {
        let poly = p.poly.iter().map(|(m, c)| (m.clone(), c / d)).collect();
        return NormalForm::new(poly, Some((p.lo >> k, p.hi >> k)));
    }
    if p.lo >> k == p.hi >> k {
        return Some(NormalForm::constant(p.lo >> k));
    }
    NormalForm::atom(Atom::FloorShr(p, k))
}

/// `clamp(x, lo, hi)` for `lo <= hi`, with nested clamps merged and
/// bounds the interval already implies dropped.
fn clamp(x: NormalForm, lo: i128, hi: i128) -> Option<NormalForm> {
    let (mut x, mut lo, mut hi) = (x, lo, hi);
    if let Some(Atom::Clamp(inner, ilo, ihi)) = x.single_atom() {
        // clamp(clamp(y, a, b), c, d) = clamp(y, max(a, c), min(b, d))
        // whenever the two ranges overlap.
        if lo.max(*ilo) <= hi.min(*ihi) {
            (lo, hi) = (lo.max(*ilo), hi.min(*ihi));
            x = inner.clone();
        }
    }
    if x.hi <= lo {
        return Some(NormalForm::constant(lo));
    }
    if x.lo >= hi {
        return Some(NormalForm::constant(hi));
    }
    if x.lo >= lo {
        lo = i128::MIN;
    }
    if x.hi <= hi {
        hi = i128::MAX;
    }
    if lo == i128::MIN && hi == i128::MAX {
        return Some(x);
    }
    NormalForm::atom(Atom::Clamp(x, lo, hi))
}

fn saturate(x: NormalForm, ty: ElemType) -> Option<NormalForm> {
    let (lo, hi) = type_range(ty);
    clamp(x, lo, hi)
}

fn min_max(op: BinOp, a: NormalForm, b: NormalForm) -> Option<NormalForm> {
    let is_min = op == BinOp::Min;
    // One side dominates the other on its whole interval.
    if a.hi <= b.lo {
        return Some(if is_min { a } else { b });
    }
    if b.hi <= a.lo {
        return Some(if is_min { b } else { a });
    }
    // Against a constant, min/max is a one-sided clamp.
    for (x, y) in [(&a, &b), (&b, &a)] {
        if let Some(c) = y.as_constant() {
            return if is_min {
                clamp(x.clone(), i128::MIN, c)
            } else {
                clamp(x.clone(), c, i128::MAX)
            };
        }
    }
    let (a, b) = if a <= b { (a, b) } else { (b, a) };
    NormalForm::atom(if is_min { Atom::Min(a, b) } else { Atom::Max(a, b) })
}

/// `|p|`.
fn abs(p: NormalForm) -> Option<NormalForm> {
    if p.lo >= 0 {
        return Some(p);
    }
    if p.hi <= 0 {
        return p.scale(-1);
    }
    let leading = p.poly.iter().find(|(m, _)| !m.is_empty()).map_or(0, |(_, &c)| c);
    let p = if leading < 0 { p.scale(-1)? } else { p };
    NormalForm::atom(Atom::Abs(p))
}

/// A lane value during translation: an exact form, or a form only known
/// modulo the width of `wrap` (the value is `wrap`'s canonical residue).
#[derive(Debug)]
struct Value {
    nf: NormalForm,
    wrap: Option<ElemType>,
}

impl Value {
    fn exact(nf: NormalForm) -> Value {
        Value { nf, wrap: None }
    }

    /// `nf` wrapped into `ty`: exact when the interval fits.
    fn wrapped(nf: NormalForm, ty: ElemType) -> Value {
        let wrap = (!nf.fits(ty)).then_some(ty);
        Value { nf, wrap }
    }

    /// The exact value, materializing a possible wrap as an atom.
    fn into_exact(self) -> Option<NormalForm> {
        let Some(ty) = self.wrap else { return Some(self.nf) };
        let residue = reduce(&self.nf.poly, ty.bits())?;
        let nf = NormalForm::new(residue.clone(), None)?;
        if let Some(c) = nf.as_constant() {
            return Some(NormalForm::constant(ty.wrap(c as i64).into()));
        }
        // A residue that already lies in the type is the value itself.
        if nf.fits(ty) {
            return Some(nf);
        }
        NormalForm::atom(Atom::Wrap(residue, ty))
    }

    /// A form congruent to the value modulo `2^ty.bits()`.
    fn modulo(self, ty: ElemType) -> Option<NormalForm> {
        match self.wrap {
            Some(w) if w.bits() < ty.bits() => self.into_exact(),
            _ => Some(self.nf),
        }
    }

    /// The value's residue modulo `2^ty.bits()`, canonically reduced.
    fn residue(self, ty: ElemType) -> Option<Poly> {
        reduce(&self.modulo(ty)?.poly, ty.bits())
    }

    /// The form, if the value is exact and affine in the cells.
    fn affine(&self) -> Option<&NormalForm> {
        (self.wrap.is_none() && self.nf.is_affine()).then_some(&self.nf)
    }
}

/// Normal form of a Halide expression's lane 0.
fn halide(e: &Expr) -> Option<Value> {
    Some(match e {
        Expr::Load(l) => {
            Value::exact(NormalForm::cell(cell_var(&l.buffer, i64::from(l.dx), l.dy), l.ty)?)
        }
        Expr::Broadcast(b) => Value::exact(NormalForm::constant(b.ty.wrap(b.value).into())),
        Expr::BroadcastLoad(b) => {
            Value::exact(NormalForm::cell(scalar_var(&b.buffer, b.x, b.dy), b.ty)?)
        }
        Expr::Cast(c) => {
            let v = halide(&c.arg)?;
            if c.saturating {
                Value::exact(saturate(v.into_exact()?, c.to)?)
            } else {
                Value::wrapped(v.modulo(c.to)?, c.to)
            }
        }
        Expr::Binary(b) => {
            let ty = e.ty();
            let (x, y) = (halide(&b.lhs)?, halide(&b.rhs)?);
            match b.op {
                BinOp::Add => Value::wrapped(x.modulo(ty)?.add(&y.modulo(ty)?, 1)?, ty),
                BinOp::Sub => Value::wrapped(x.modulo(ty)?.add(&y.modulo(ty)?, -1)?, ty),
                BinOp::Mul => Value::wrapped(x.modulo(ty)?.mul(&y.modulo(ty)?)?, ty),
                BinOp::Min | BinOp::Max => {
                    Value::exact(min_max(b.op, x.into_exact()?, y.into_exact()?)?)
                }
                BinOp::Absd => Value::wrapped(abs(x.into_exact()?.add(&y.into_exact()?, -1)?)?, ty),
            }
        }
        Expr::Shift(s) => {
            let ty = e.ty();
            let v = halide(&s.arg)?;
            match s.dir {
                ShiftDir::Left => Value::wrapped(v.modulo(ty)?.scale(1i128 << s.amount)?, ty),
                // Arithmetic for signed, logical for unsigned: both floor
                // the canonical value.
                ShiftDir::Right => Value::exact(floor_shr(v.into_exact()?, s.amount)?),
            }
        }
    })
}

/// Width of the encoder's multiply-accumulate register (see
/// `encode::acc_width`): the sum wraps there before the final wrap or clamp.
fn acc_bits(out_bits: u32, extra: u32) -> u32 {
    (out_bits + extra).min(64)
}

/// Finish an exact multiply-accumulate sum into `out`.
fn accumulate(sum: NormalForm, saturating: bool, out: ElemType, acc: u32) -> Option<Value> {
    if !saturating {
        // The accumulator is at least as wide as `out`, so its wrap is
        // invisible modulo `out`'s width.
        return Some(Value::wrapped(sum, out));
    }
    // The clamp sees the accumulator's signed value: exact only if the sum
    // fits it.
    let half = 1i128 << (acc - 1);
    if sum.lo < -half || sum.hi >= half {
        return None;
    }
    Some(Value::exact(saturate(sum, out)?))
}

/// Normal form of an uber-expression's lane 0.
fn uber(u: &UberExpr) -> Option<Value> {
    Some(match u {
        UberExpr::Data(l) => {
            Value::exact(NormalForm::cell(cell_var(&l.buffer, i64::from(l.dx), l.dy), l.ty)?)
        }
        UberExpr::Bcast { value, ty } => Value::exact(match value {
            ScalarSource::Imm(v) => NormalForm::constant(ty.wrap(*v).into()),
            ScalarSource::Scalar { buffer, x, dy } => {
                NormalForm::cell(scalar_var(buffer, *x, *dy), *ty)?
            }
        }),
        UberExpr::VsMpyAdd(v) => {
            let mut sum = NormalForm::constant(0);
            for (input, &w) in v.inputs.iter().zip(&v.kernel) {
                sum = sum.add(&uber(input)?.into_exact()?.scale(i128::from(w))?, 1)?;
            }
            accumulate(sum, v.saturating, v.out, acc_bits(v.out.bits(), 16))?
        }
        UberExpr::VvMpyAdd(v) => {
            let mut sum = NormalForm::constant(0);
            for (a, b) in &v.pairs {
                sum = sum.add(&uber(a)?.into_exact()?.mul(&uber(b)?.into_exact()?)?, 1)?;
            }
            let max_in =
                v.pairs.iter().map(|(a, b)| a.ty().bits() + b.ty().bits()).max().unwrap_or(16);
            accumulate(sum, v.saturating, v.out, acc_bits(v.out.bits().max(max_in), 6))?
        }
        UberExpr::AbsDiff(a, b) => {
            let d = uber(a)?.into_exact()?.add(&uber(b)?.into_exact()?, -1)?;
            Value::wrapped(abs(d)?, u.ty())
        }
        UberExpr::Min(a, b) => {
            Value::exact(min_max(BinOp::Min, uber(a)?.into_exact()?, uber(b)?.into_exact()?)?)
        }
        UberExpr::Max(a, b) => {
            Value::exact(min_max(BinOp::Max, uber(a)?.into_exact()?, uber(b)?.into_exact()?)?)
        }
        UberExpr::Average { a, b, round } => {
            let sum = uber(a)?.into_exact()?.add(&uber(b)?.into_exact()?, 1)?;
            Value::exact(floor_shr(sum.add(&NormalForm::constant(i128::from(*round)), 1)?, 1)?)
        }
        UberExpr::Narrow { arg, shift, round, saturating, out } => {
            let src = arg.ty();
            let mut v = uber(arg)?;
            if *shift > 0 {
                if *round {
                    // The bias add wraps at the source width.
                    let bias = NormalForm::constant(1i128 << (shift - 1));
                    v = Value::wrapped(v.modulo(src)?.add(&bias, 1)?, src);
                }
                v = Value::exact(floor_shr(v.into_exact()?, *shift)?);
            }
            if *saturating {
                Value::exact(saturate(v.into_exact()?, *out)?)
            } else {
                Value::wrapped(v.modulo(*out)?, *out)
            }
        }
        UberExpr::Widen { arg, out } => Value::wrapped(uber(arg)?.into_exact()?, *out),
        UberExpr::Shl { arg, amount } => {
            let ty = u.ty();
            Value::wrapped(uber(arg)?.modulo(ty)?.scale(1i128 << amount)?, ty)
        }
    })
}

/// Which kind of normal form decided a query (the `form` trace argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Form {
    /// Both sides are exact affine forms in the cells; the verdict may be
    /// either way.
    Linear,
    /// Equal polynomial normal forms: the pair is equivalent.
    Poly,
}

impl Form {
    /// Trace label.
    pub fn name(self) -> &'static str {
        match self {
            Form::Linear => "linear",
            Form::Poly => "poly",
        }
    }
}

/// A verdict reached without the solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Whether the two sides are equivalent.
    pub equal: bool,
    /// The kind of form that decided it.
    pub form: Form,
}

/// Decide equivalence of a Halide expression and an uber-expression by
/// normal forms. `None` when the query needs the solver: a side has no
/// form, or the forms differ outside the affine domain.
pub fn decide(h: &Expr, u: &UberExpr) -> Option<Decision> {
    let (vh, vu) = (halide(h)?, uber(u)?);
    if let (Some(a), Some(b)) = (vh.affine(), vu.affine()) {
        return Some(Decision { equal: a == b, form: Form::Linear });
    }
    let ty = h.ty();
    if ty != u.ty() || vh.residue(ty)? != vu.residue(ty)? {
        return None;
    }
    Some(Decision { equal: true, form: Form::Poly })
}

/// The affine-domain verdict of [`decide`]: `Some(eq)` when both sides
/// are exact affine forms in the cells.
pub fn decide_linear(h: &Expr, u: &UberExpr) -> Option<bool> {
    decide(h, u).filter(|d| d.form == Form::Linear).map(|d| d.equal)
}

/// Exact affine form of a Halide expression's lane 0, if it has one.
pub fn linear_halide(e: &Expr) -> Option<NormalForm> {
    halide(e)?.affine().cloned()
}

/// Exact affine form of an uber-expression's lane 0, if it has one.
pub fn linear_uber(u: &UberExpr) -> Option<NormalForm> {
    uber(u)?.affine().cloned()
}
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use halide_ir::builder as hb;
    use lanes::ElemType::{I16, U16, U32, U8};

    #[test]
    fn conv_row_is_linear_and_equal() {
        let t = |dx| hb::widen(hb::load("in", U8, dx, 0));
        let h = hb::add(hb::add(t(-1), hb::mul(t(0), hb::bcast(2, U16))), t(1));
        let u = UberExpr::conv("in", U8, -1, 0, &[1, 2, 1], U16);
        assert_eq!(decide_linear(&h, &u), Some(true));
        let wrong = UberExpr::conv("in", U8, -1, 0, &[1, 1, 2], U16);
        assert_eq!(decide_linear(&h, &wrong), Some(false));
    }

    #[test]
    fn overflowing_sum_is_not_linear() {
        // 255 * 255 exceeds u8: wrapping breaks exactness.
        let h = hb::mul(hb::load("in", U8, 0, 0), hb::bcast(255, U8));
        assert!(linear_halide(&h).is_none());
    }

    #[test]
    fn min_defeats_linearity() {
        let h = hb::min(hb::load("in", U8, 0, 0), hb::bcast(5, U8));
        assert!(linear_halide(&h).is_none());
        let u = UberExpr::Min(
            Box::new(UberExpr::conv("in", U8, 0, 0, &[1], U8)),
            Box::new(UberExpr::Bcast { value: ScalarSource::Imm(5), ty: U8 }),
        );
        assert!(linear_uber(&u).is_none());
    }

    #[test]
    fn big_gaussian_column_decides_instantly() {
        // 25-term weighted sum — the query shape that is hard for plain
        // CDCL but trivial as a linear form.
        let taps: [i64; 5] = [1, 4, 6, 4, 1];
        let row = |dy: i32| {
            let mut acc: Option<Expr> = None;
            for (k, &t) in taps.iter().enumerate() {
                let w = hb::widen(hb::load("in", U8, k as i32 - 2, dy));
                let term = if t == 1 { w } else { hb::mul(w, hb::bcast(t, U16)) };
                acc = Some(match acc {
                    None => term,
                    Some(a) => hb::add(a, term),
                });
            }
            acc.expect("taps")
        };
        let mut sum: Option<Expr> = None;
        for (k, &t) in taps.iter().enumerate() {
            let r = row(k as i32 - 2);
            let term = if t == 1 { r } else { hb::mul(r, hb::bcast(t, U16)) };
            sum = Some(match sum {
                None => term,
                Some(a) => hb::add(a, term),
            });
        }
        let h = sum.expect("rows");
        // Matching uber form: 25 loads with the outer-product kernel.
        let mut inputs = Vec::new();
        let mut kernel = Vec::new();
        for (j, &tj) in taps.iter().enumerate() {
            for (i, &ti) in taps.iter().enumerate() {
                inputs.push(UberExpr::Data(halide_ir::Load {
                    buffer: "in".into(),
                    dx: i as i32 - 2,
                    dy: j as i32 - 2,
                    ty: U8,
                }));
                kernel.push(ti * tj);
            }
        }
        let u =
            UberExpr::VsMpyAdd(uber_ir::VsMpyAdd { inputs, kernel, saturating: false, out: U16 });
        assert_eq!(decide_linear(&h, &u), Some(true));
    }

    #[test]
    fn runtime_scalars_are_cells() {
        let h =
            hb::mul(hb::widen(hb::load("x", U8, 0, 0)), hb::widen(hb::bcast_load("w", 1, 0, U8)));
        assert!(linear_halide(&h).is_none(), "product of two cells is non-linear");
    }

    /// Lifting queries from the paper suite that exhausted the solver's
    /// conflict budget before normal forms decided them, verbatim:
    /// (family, Halide side, uber side).
    pub(crate) const SUITE_SHAPES: [(&str, &str, &str); 5] = [
        (
            "gaussian7x7 narrow.deepen rows",
            "(add (shr (add (add (add (add (add (add (add (cast u16 (load input u8 -3 \
            -3)) (mul (cast u16 (load input u8 -2 -3)) (bcast 6 u16))) (mul (cast \
            u16 (load input u8 -1 -3)) (bcast 15 u16))) (mul (cast u16 (load input \
            u8 0 -3)) (bcast 20 u16))) (mul (cast u16 (load input u8 1 -3)) (bcast \
            15 u16))) (mul (cast u16 (load input u8 2 -3)) (bcast 6 u16))) (cast u16 \
            (load input u8 3 -3))) (bcast 8 u16)) 4) (mul (shr (add (add (add (add \
            (add (add (add (cast u16 (load input u8 -3 -2)) (mul (cast u16 (load \
            input u8 -2 -2)) (bcast 6 u16))) (mul (cast u16 (load input u8 -1 -2)) \
            (bcast 15 u16))) (mul (cast u16 (load input u8 0 -2)) (bcast 20 u16))) \
            (mul (cast u16 (load input u8 1 -2)) (bcast 15 u16))) (mul (cast u16 \
            (load input u8 2 -2)) (bcast 6 u16))) (cast u16 (load input u8 3 -2))) \
            (bcast 8 u16)) 4) (bcast 6 u16)))",
            "(vs-mpy-add #f u16 (1 (narrow 4 #t #t u16 (vs-mpy-add #f u16 (1 (data \
            input u8 -3 -3)) (6 (data input u8 -2 -3)) (15 (data input u8 -1 -3)) \
            (20 (data input u8 0 -3)) (15 (data input u8 1 -3)) (6 (data input u8 2 \
            -3)) (1 (data input u8 3 -3))))) (6 (narrow 4 #t #t u16 (vs-mpy-add #f \
            u16 (1 (data input u8 -3 -2)) (6 (data input u8 -2 -2)) (15 (data input \
            u8 -1 -2)) (20 (data input u8 0 -2)) (15 (data input u8 1 -2)) (6 (data \
            input u8 2 -2)) (1 (data input u8 3 -2))))))",
        ),
        (
            "rounding saturating narrow of a product",
            "(sat-cast u8 (shr (add (mul (cast u16 (load a u8 0 0)) (cast u16 (load b \
            u8 0 0))) (bcast 64 u16)) 7))",
            "(narrow 7 #t #t u8 (vs-mpy-add #f u16 (1 (vv-mpy-add #f u16 ((data a u8 \
            0 0) (data b u8 0 0))))))",
        ),
        (
            "matmul with scalar weights, bias and rounding",
            "(sat-cast u8 (shr (add (add (add (add (mul (cast u16 (load x u8 0 0)) \
            (cast u16 (bcast-load w 0 0 u8))) (mul (cast u16 (load x u8 0 1)) (cast \
            u16 (bcast-load w 1 0 u8)))) (add (mul (cast u16 (load x u8 0 2)) (cast \
            u16 (bcast-load w 2 0 u8))) (mul (cast u16 (load x u8 0 3)) (cast u16 \
            (bcast-load w 3 0 u8))))) (bcast-load bias 0 0 u16)) (bcast 128 u16)) \
            8))",
            "(narrow 8 #t #t u8 (vs-mpy-add #f u16 (1 (vv-mpy-add #f u16 ((data x u8 \
            0 0) (bcast (scal w 0 0) u8)) ((data x u8 0 1) (bcast (scal w 1 0) u8)) \
            ((data x u8 0 2) (bcast (scal w 2 0) u8)) ((data x u8 0 3) (bcast (scal \
            w 3 0) u8)))) (1 (bcast (scal bias 0 0) u16))))",
        ),
        (
            "sobel clamped gradient",
            "(min (add (absd (add (add (cast u16 (load input u8 -1 -1)) (mul (cast \
            u16 (load input u8 0 -1)) (bcast 2 u16))) (cast u16 (load input u8 1 \
            -1))) (add (add (cast u16 (load input u8 -1 1)) (mul (cast u16 (load \
            input u8 0 1)) (bcast 2 u16))) (cast u16 (load input u8 1 1)))) (absd \
            (add (add (cast u16 (load input u8 -1 -1)) (mul (cast u16 (load input u8 \
            -1 0)) (bcast 2 u16))) (cast u16 (load input u8 -1 1))) (add (add (cast \
            u16 (load input u8 1 -1)) (mul (cast u16 (load input u8 1 0)) (bcast 2 \
            u16))) (cast u16 (load input u8 1 1))))) (bcast 255 u16))",
            "(min (vs-mpy-add #f u16 (1 (abs-diff (vs-mpy-add #f u16 (1 (data input \
            u8 -1 -1)) (2 (data input u8 0 -1)) (1 (data input u8 1 -1))) \
            (vs-mpy-add #f u16 (1 (data input u8 -1 1)) (2 (data input u8 0 1)) (1 \
            (data input u8 1 1))))) (1 (abs-diff (vs-mpy-add #f u16 (1 (data input \
            u8 -1 -1)) (2 (data input u8 -1 0)) (1 (data input u8 -1 1))) \
            (vs-mpy-add #f u16 (1 (data input u8 1 -1)) (2 (data input u8 1 0)) (1 \
            (data input u8 1 1)))))) (bcast 255 u16))",
        ),
        (
            "camera_pipe clamp of a shifted sum",
            "(max (min (shr (add (add (mul (cast i16 (load r u8 0 0)) (bcast 3 i16)) \
            (mul (cast i16 (load g u8 0 0)) (bcast 2 i16))) (mul (cast i16 (load b \
            u8 0 0)) (bcast -1 i16))) 2) (bcast 127 i16)) (bcast 0 i16))",
            "(max (min (narrow 2 #f #t i16 (vs-mpy-add #f i16 (3 (data r u8 0 0)) (2 \
            (data g u8 0 0)) (-1 (data b u8 0 0)))) (bcast 127 i16)) (bcast 0 i16))",
        ),
    ];

    /// Parse one of [`SUITE_SHAPES`].
    pub(crate) fn suite_shape(family: &str) -> (Expr, UberExpr) {
        let (_, h, u) = SUITE_SHAPES.iter().find(|s| s.0 == family).expect("known family");
        (
            halide_ir::sexpr::parse(h).expect("Halide side parses"),
            uber_ir::sexpr::parse(u).expect("uber side parses"),
        )
    }

    fn assert_decided_equal(family: &str) {
        let (h, u) = suite_shape(family);
        assert_eq!(decide(&h, &u), Some(Decision { equal: true, form: Form::Poly }), "{family}");
    }

    #[test]
    fn gaussian_deepened_rounded_rows_are_decided() {
        assert_decided_equal("gaussian7x7 narrow.deepen rows");
    }

    #[test]
    fn rounding_saturating_narrow_of_a_product_is_decided() {
        assert_decided_equal("rounding saturating narrow of a product");
    }

    #[test]
    fn matmul_with_scalar_weights_bias_and_rounding_is_decided() {
        // The four u8×u8 products overflow u16: both sides are equal only
        // modulo 2^16, which the wrap-aware form tracks.
        assert_decided_equal("matmul with scalar weights, bias and rounding");
    }

    #[test]
    fn sobel_clamped_gradient_is_decided() {
        assert_decided_equal("sobel clamped gradient");
    }

    #[test]
    fn camera_pipe_clamp_of_a_shifted_sum_is_decided() {
        assert_decided_equal("camera_pipe clamp of a shifted sum");
    }

    fn data(buffer: &str, ty: ElemType) -> UberExpr {
        UberExpr::Data(halide_ir::Load { buffer: buffer.into(), dx: 0, dy: 0, ty })
    }

    fn narrow(arg: UberExpr, shift: u32, round: bool, saturating: bool, out: ElemType) -> UberExpr {
        UberExpr::Narrow { arg: Box::new(arg), shift, round, saturating, out }
    }

    fn product(a: UberExpr, b: UberExpr, saturating: bool, out: ElemType) -> UberExpr {
        UberExpr::VvMpyAdd(uber_ir::VvMpyAdd { pairs: vec![(a, b)], saturating, out })
    }

    /// Near misses of the suite's shapes. Each pair differs on some input,
    /// so the procedure must never call it equal.
    #[test]
    fn near_misses_are_never_equal() {
        let ab = hb::mul(hb::widen(hb::load("a", U8, 0, 0)), hb::widen(hb::load("b", U8, 0, 0)));
        let uv = || product(data("a", U8), data("b", U8), false, U16);
        let sum = hb::add(hb::widen(hb::load("a", U8, 0, 0)), hb::widen(hb::load("b", U8, 0, 0)));
        let cases = [
            (
                "wrong rounding bias",
                hb::shr(hb::add(ab.clone(), hb::bcast(63, U16)), 7),
                narrow(uv(), 7, true, false, U16),
            ),
            (
                "rounding against truncating shift",
                hb::shr(hb::add(ab.clone(), hb::bcast(64, U16)), 7),
                narrow(uv(), 7, false, false, U16),
            ),
            (
                "signed against unsigned shift",
                hb::shr(hb::cast(U16, hb::load("w", I16, 0, 0)), 1),
                narrow(data("w", I16), 1, false, false, U16),
            ),
            (
                // The interpreter test `rounding_narrow_wraps_at_source_width`
                // and range.rs `rounding_narrow_near_source_boundary_widens`.
                "rounding add that wraps at the source width",
                hb::cast(
                    U16,
                    hb::shr(hb::add(hb::widen(hb::load("in", U16, 0, 0)), hb::bcast(8, U32)), 4),
                ),
                narrow(data("in", U16), 4, true, false, U16),
            ),
            (
                "u16 x u16 product that overflows u16",
                hb::mul(hb::load("a", U16, 0, 0), hb::load("b", U16, 0, 0)),
                product(data("a", U16), data("b", U16), true, U16),
            ),
            (
                "saturating against truncating narrow",
                hb::cast(U8, sum.clone()),
                narrow(
                    UberExpr::VsMpyAdd(uber_ir::VsMpyAdd {
                        inputs: vec![data("a", U8), data("b", U8)],
                        kernel: vec![1, 1],
                        saturating: false,
                        out: U16,
                    }),
                    0,
                    false,
                    true,
                    U8,
                ),
            ),
            ("min against max", hb::min(hb::load("a", U8, 0, 0), hb::load("b", U8, 0, 0)), {
                UberExpr::Max(Box::new(data("a", U8)), Box::new(data("b", U8)))
            }),
        ];
        // The corpus itself is sound: differential testing alone tells
        // every pair apart.
        let testing = crate::Verifier { use_smt: false, ..crate::Verifier::fast() };
        for (what, h, u) in cases {
            assert!(!testing.equiv_halide_uber(&h, &u), "{what} must be a real miss");
            assert_ne!(decide(&h, &u).map(|d| d.equal), Some(true), "{what}: {h} vs {u}");
        }
    }
}
