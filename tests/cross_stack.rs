//! Integration across the solver stack: lifting queries discharged by the
//! linear decision procedure and by the bit-blasting solver must agree,
//! and the end-to-end verifier must be sound on engineered near-misses.

use halide_ir::builder::*;
use halide_ir::Expr;
use lanes::ElemType::{I16, U16, U8};
use lanes::rng::Rng;
use synth::linear::{decide_linear, linear_halide};
use synth::Verifier;
use uber_ir::UberExpr;

fn v() -> Verifier {
    Verifier::fast()
}

#[test]
fn linear_and_solver_agree_on_small_kernels() {
    // For 2-tap kernels over u8 cells, compare decide_linear against the
    // full oracle for every weight pair in a small grid.
    for w0 in 1..4i64 {
        for w1 in 1..4i64 {
            let h = add(
                mul(widen(load("in", U8, 0, 0)), bcast(w0, U16)),
                mul(widen(load("in", U8, 1, 0)), bcast(w1, U16)),
            );
            for c0 in 1..4i64 {
                for c1 in 1..4i64 {
                    let u = UberExpr::conv("in", U8, 0, 0, &[c0, c1], U16);
                    let lin = decide_linear(&h, &u).expect("both sides linear");
                    let full = v().equiv_halide_uber(&h, &u);
                    assert_eq!(
                        lin, full,
                        "disagreement at weights ({w0},{w1}) vs kernel ({c0},{c1})"
                    );
                }
            }
        }
    }
}

#[test]
fn near_miss_candidates_are_rejected() {
    let t = |dx| widen(load("in", U8, dx, 0));
    let h = add(add(t(-1), mul(t(0), bcast(2, U16))), t(1));
    // Right kernel, shifted window.
    let u = UberExpr::conv("in", U8, 0, 0, &[1, 2, 1], U16);
    assert!(!v().equiv_halide_uber(&h, &u));
    // Right window, permuted kernel.
    let u = UberExpr::conv("in", U8, -1, 0, &[2, 1, 1], U16);
    assert!(!v().equiv_halide_uber(&h, &u));
    // Wrong output type.
    let u = UberExpr::conv("in", U8, -1, 0, &[1, 2, 1], I16);
    assert!(!v().equiv_halide_uber(&h, &u));
}

#[test]
fn saturation_vs_wrap_distinguished_by_nonlinear_path() {
    // u8(x + y) vs sat_u8(x + y) over u16 sums that can exceed 255: the
    // linear path bails (wrap) and the solver must find a counterexample.
    let x = add(widen(load("a", U8, 0, 0)), widen(load("b", U8, 0, 0)));
    let truncating = cast(U8, x.clone());
    assert!(linear_halide(&truncating).is_none());
    let u_sat = UberExpr::Narrow {
        arg: Box::new(lift_of(&x)),
        shift: 0,
        round: false,
        saturating: true,
        out: U8,
    };
    assert!(!v().equiv_halide_uber(&truncating, &u_sat));
    let u_wrap = UberExpr::Narrow {
        arg: Box::new(lift_of(&x)),
        shift: 0,
        round: false,
        saturating: false,
        out: U8,
    };
    assert!(v().equiv_halide_uber(&truncating, &u_wrap));
}

/// The known-correct lift of `widen(a(0)) + widen(b(0))`.
fn lift_of(_x: &Expr) -> UberExpr {
    UberExpr::VsMpyAdd(uber_ir::VsMpyAdd {
        inputs: vec![
            UberExpr::Data(halide_ir::Load { buffer: "a".into(), dx: 0, dy: 0, ty: U8 }),
            UberExpr::Data(halide_ir::Load { buffer: "b".into(), dx: 0, dy: 0, ty: U8 }),
        ],
        kernel: vec![1, 1],
        saturating: false,
        out: U16,
    })
}

/// Random wrap-free weighted sums: the linear path must accept the
/// true lift and reject a perturbed kernel.
#[test]
fn prop_linear_path_correct() {
    let mut rng = Rng::seed_from_u64(0xc505);
    for _ in 0..24 {
        let k: Vec<i64> =
            (0..rng.gen_range_usize(2..=4)).map(|_| rng.gen_range(1..=7)).collect();
        let perturb = rng.gen_range_usize(0..=3);
        let mut h: Option<Expr> = None;
        for (i, &w) in k.iter().enumerate() {
            let t = widen(load("in", U8, i as i32, 0));
            let term = if w == 1 { t } else { mul(t, bcast(w, U16)) };
            h = Some(match h {
                None => term,
                Some(a) => add(a, term),
            });
        }
        let h = h.expect("non-empty");
        let u = UberExpr::conv("in", U8, 0, 0, &k, U16);
        assert_eq!(decide_linear(&h, &u), Some(true));

        let mut k2 = k.clone();
        let idx = perturb % k2.len();
        k2[idx] += 1;
        let u2 = UberExpr::conv("in", U8, 0, 0, &k2, U16);
        assert_eq!(decide_linear(&h, &u2), Some(false));
    }
}

/// Top-level near-miss mutants of a lifted candidate: flipped rounding or
/// saturation, shifted shift amounts, bumped weights and constants, and
/// min/max swaps.
fn mutants(u: &UberExpr) -> Vec<UberExpr> {
    let mut out = Vec::new();
    match u {
        UberExpr::Narrow { arg, shift, round, saturating, out: ty } => {
            let mk = |shift, round, saturating| UberExpr::Narrow {
                arg: arg.clone(),
                shift,
                round,
                saturating,
                out: *ty,
            };
            out.push(mk(*shift, !round, *saturating));
            out.push(mk(*shift, *round, !saturating));
            if shift + 1 < arg.ty().bits() {
                out.push(mk(shift + 1, *round, *saturating));
            }
        }
        UberExpr::VsMpyAdd(v) => {
            // Stay inside the encoder's weight bound (|w| < 2^12).
            if v.kernel[0] + 1 < 1 << 12 {
                let mut bumped = v.clone();
                bumped.kernel[0] += 1;
                out.push(UberExpr::VsMpyAdd(bumped));
            }
            let flipped = uber_ir::VsMpyAdd { saturating: !v.saturating, ..v.clone() };
            out.push(UberExpr::VsMpyAdd(flipped));
        }
        UberExpr::VvMpyAdd(v) => {
            let flipped = uber_ir::VvMpyAdd { saturating: !v.saturating, ..v.clone() };
            out.push(UberExpr::VvMpyAdd(flipped));
        }
        UberExpr::Min(a, b) => out.push(UberExpr::Max(a.clone(), b.clone())),
        UberExpr::Max(a, b) => out.push(UberExpr::Min(a.clone(), b.clone())),
        UberExpr::Average { a, b, round } => {
            out.push(UberExpr::Average { a: a.clone(), b: b.clone(), round: !round });
        }
        UberExpr::Bcast { value: uber_ir::ScalarSource::Imm(v), ty } => out.push(UberExpr::Bcast {
            value: uber_ir::ScalarSource::Imm(ty.wrap(v + 1)),
            ty: *ty,
        }),
        UberExpr::Shl { arg, amount } if amount + 1 < arg.ty().bits() => {
            out.push(UberExpr::Shl { arg: arg.clone(), amount: amount + 1 });
        }
        _ => {}
    }
    out
}

/// Whether a pair is small enough for the solver cross-check: few nodes,
/// no 32-bit lanes, and no wide multipliers — vector products and
/// `vs-mpy-add`s over 16-bit inputs (bit-blasted into 32-bit accumulator
/// multiplies) are what exhausts a solver's budget.
fn solver_sized(h: &Expr, u: &UberExpr) -> bool {
    let mut ok = halide_ir::analysis::node_count(h) + u.node_count() <= 12;
    halide_ir::analysis::visit(h, &mut |n| {
        ok &= n.ty().bits() <= 16;
        if let Expr::Binary(b) = n {
            ok &= !(b.op == halide_ir::BinOp::Mul
                && !matches!(*b.rhs, Expr::Broadcast(_))
                && !matches!(*b.lhs, Expr::Broadcast(_)));
        }
    });
    fn walk(u: &UberExpr, ok: &mut bool) {
        *ok &= u.ty().bits() <= 16
            && match u {
                UberExpr::VvMpyAdd(_) => false,
                UberExpr::VsMpyAdd(v) => v.inputs.iter().all(|i| i.ty().bits() <= 8),
                _ => true,
            };
        u.children().into_iter().for_each(|c| walk(c, ok));
    }
    walk(u, &mut ok);
    ok
}

/// Conflict cap for the solver cross-check. The pairs [`solver_sized`]
/// admits finish far below it; the cap only turns a regression into a
/// failure instead of a hang.
const SOLVER_BUDGET: u64 = 200_000;

/// Generated expressions, every sub-expression's lift, and near-miss
/// mutants of those lifts. Whenever the normal form calls a pair equal,
/// the interpreters must agree on the verifier's environments at both
/// widths, and the solver must prove every pair small enough to finish.
#[test]
fn prop_normal_form_equal_implies_equivalent() {
    let mut rng = Rng::seed_from_u64(0x0f0f_5eed);
    let cfg = oracle::GenConfig::default();
    // Lifting and the check both rest on differential testing alone, so
    // the normal form is the only proof in play.
    let testing = Verifier { use_smt: false, ..Verifier::fast() };
    let (mut equal, mut proved) = (0, 0);
    for _ in 0..150 {
        let e = oracle::gen_expr(&mut rng, &cfg);
        let mut subs = Vec::new();
        halide_ir::analysis::visit(&e, &mut |n| subs.push(n.clone()));
        for s in subs {
            let mut stats = synth::SynthStats::default();
            let Some((lifted, _)) = synth::lift_expr(&s, &testing, &mut stats) else {
                continue;
            };
            for u in std::iter::once(lifted.clone()).chain(mutants(&lifted)) {
                let Some(d) = synth::linear::decide(&s, &u) else { continue };
                if !d.equal {
                    continue;
                }
                equal += 1;
                assert!(testing.equiv_halide_uber(&s, &u), "normal form unsound: {s} vs {u}");
                if solver_sized(&s, &u) {
                    let verdict = smt::prove_unsat(
                        |ctx| {
                            let mut any_ne = ctx.ff();
                            for lane in 0..2 {
                                let th = synth::encode::encode_halide_lane(ctx, &s, lane);
                                let tu = synth::encode::encode_uber_lane(ctx, &u, lane);
                                let ne = ctx.ne(th, tu);
                                any_ne = ctx.or(any_ne, ne);
                            }
                            any_ne
                        },
                        SOLVER_BUDGET,
                    );
                    assert_eq!(verdict, Some(true), "solver does not prove {s} vs {u}");
                    proved += 1;
                }
            }
        }
    }
    assert!(equal >= 1000 && proved >= 300, "too few pairs: {equal} equal, {proved} proved");
}
