//! The one-shot proof entry point: build a term in a fresh [`Context`]
//! and decide it under a conflict budget.

use crate::solver::{BvSolver, SmtResult};
use crate::term::{Context, TermId};

/// Build a width-1 term in a fresh context and decide whether it is
/// unsatisfiable within `max_conflicts` CDCL conflicts.
///
/// Returns `Some(true)` when unsatisfiable, `Some(false)` when a model
/// exists, `None` when the conflict budget ran out ("unknown").
pub fn prove_unsat(build: impl FnOnce(&mut Context) -> TermId, max_conflicts: u64) -> Option<bool> {
    let mut sp = trace::span("smt.prove_unsat", "smt");
    let mut ctx = Context::new();
    let t = build(&mut ctx);
    let mut solver = BvSolver::new(&ctx);
    solver.assert_term(t);
    let verdict = solver.check_limited(max_conflicts).map(|r| r == SmtResult::Unsat);
    if sp.is_active() {
        sp.arg("terms", ctx.len());
        sp.arg(
            "outcome",
            match verdict {
                Some(true) => "unsat",
                Some(false) => "sat",
                None => "unknown",
            },
        );
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decides_across_queries() {
        let commutes = prove_unsat(
            |ctx| {
                let x = ctx.var("x", 8);
                let y = ctx.var("y", 8);
                let l = ctx.add(x, y);
                let r = ctx.add(y, x);
                ctx.ne(l, r)
            },
            u64::MAX,
        );
        assert_eq!(commutes, Some(true));
        let sat = prove_unsat(
            |ctx| {
                let x = ctx.var("x", 8);
                let k = ctx.constant(3, 8);
                ctx.eq(x, k)
            },
            u64::MAX,
        );
        assert_eq!(sat, Some(false));
    }
}
