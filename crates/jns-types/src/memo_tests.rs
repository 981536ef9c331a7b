//! Differential and pinned tests for the memoised judgments: the cached
//! `~` labels against the breadth-first search they replaced, order
//! independence and cut safety of the subtyping table, and the
//! closed-world sharing results of the λ-compiler families.

#[path = "../../../tests/corpus/mod.rs"]
mod corpus;

use crate::fixtures::figure12;
use crate::ir::CheckedProgram;
use crate::table::ClassTable;
use crate::ty::{ClassId, TPath, Ty};
use crate::{check, Judge, TypeEnv};

/// The `~` relation as a breadth-first search over direct `@` edges,
/// redone for every query: the implementation the cached component labels
/// replaced, kept as their oracle.
fn related_bfs(t: &ClassTable, p1: ClassId, p2: ClassId) -> bool {
    if p1 == p2 {
        return true;
    }
    let mut seen = vec![p1];
    let mut queue = vec![p1];
    while let Some(q) = queue.pop() {
        let mut nbrs = t.direct_supers(q);
        for id in t.all_ids() {
            if t.direct_supers(id).contains(&q) {
                nbrs.push(id);
            }
        }
        for nb in nbrs {
            if nb == p2 {
                return true;
            }
            if !seen.contains(&nb) {
                seen.push(nb);
                queue.push(nb);
            }
        }
    }
    false
}

fn checked(name: &str, src: &str) -> CheckedProgram {
    let prog = jns_syntax::parse(src).unwrap_or_else(|e| panic!("{name}: parse: {e}"));
    check(&prog).unwrap_or_else(|es| panic!("{name}: rejected: {}", es[0].message))
}

fn lambda_program() -> CheckedProgram {
    checked("lambda", &jns_core::lambda::program("print 1;"))
}

/// Every class pair of `t` agrees with the oracle.
fn assert_related_matches_oracle(name: &str, t: &ClassTable) {
    let ids = t.all_ids();
    for &a in &ids {
        for &b in &ids {
            assert_eq!(
                t.related(a, b),
                related_bfs(t, a, b),
                "{name}: `{}` ~ `{}`",
                t.class_name(a),
                t.class_name(b)
            );
        }
    }
}

/// Compares after checking, after a new class appears, and after an
/// `update` joins it to the hierarchy.
fn assert_related_matches_oracle_through_changes(name: &str, t: &ClassTable) {
    assert_related_matches_oracle(name, t);
    let fresh = t.add_explicit(ClassId::ROOT, t.intern("ZzFresh"));
    assert_related_matches_oracle(&format!("{name} + class"), t);
    let anchor = ClassId(1);
    t.update(fresh, |ci| ci.extends.push(Ty::Class(anchor)));
    assert!(t.related(fresh, anchor), "{name}: update joins `~`");
    assert_related_matches_oracle(&format!("{name} + update"), t);
}

#[test]
fn cached_related_matches_bfs_oracle() {
    let corpus = corpus::PAPER_EXAMPLES.iter().chain(corpus::PAPER_FIGURES);
    for (name, src) in corpus {
        assert_related_matches_oracle_through_changes(name, &checked(name, src).table);
    }
    assert_related_matches_oracle_through_changes("lambda", &lambda_program().table);
    let service = checked("service", &jns_core::service::program("print 1;"));
    assert_related_matches_oracle_through_changes("service", &service.table);
    let (t, ids) = figure12();
    for (fam, c) in [("ASTDisplay", "Value"), ("ASTDisplay", "Node")] {
        t.member(ids[fam], t.intern(c)).expect("implicit class");
    }
    assert_related_matches_oracle_through_changes("figure12", &t);
}

/// `(C!, D)` and `(C, D)` for every class pair of `t`.
fn class_pair_goals(t: &ClassTable) -> Vec<(Ty, Ty)> {
    let ids = t.all_ids();
    let mut goals = Vec::new();
    for &c in &ids {
        for &d in &ids {
            goals.push((Ty::Class(c).exact(), Ty::Class(d)));
            goals.push((Ty::Class(c), Ty::Class(d)));
        }
    }
    goals
}

#[test]
fn subtyping_table_is_independent_of_query_order() {
    // Each order gets a table of its own, so neither warms the other.
    let (fwd_prog, rev_prog, lone_prog) = (lambda_program(), lambda_program(), lambda_program());
    let goals = class_pair_goals(&fwd_prog.table);
    let env = TypeEnv::new();
    let fwd_judge = Judge::new(&fwd_prog.table, &env);
    let fwd: Vec<bool> = goals
        .iter()
        .map(|(s, t)| fwd_judge.sub_pure(s, t))
        .collect();
    let rev_judge = Judge::new(&rev_prog.table, &env);
    let mut rev: Vec<bool> = goals
        .iter()
        .rev()
        .map(|(s, t)| rev_judge.sub_pure(s, t))
        .collect();
    rev.reverse();
    // And each goal alone on a fresh judge: nothing carried between goals.
    let lone: Vec<bool> = goals
        .iter()
        .map(|(s, t)| Judge::new(&lone_prog.table, &env).sub_pure(s, t))
        .collect();
    for (i, (s, t)) in goals.iter().enumerate() {
        let show = |ty: &Ty| fwd_prog.table.show_ty(ty);
        assert_eq!(
            fwd[i],
            rev[i],
            "{} <= {}: forward vs reverse",
            show(s),
            show(t)
        );
        assert_eq!(
            fwd[i],
            lone[i],
            "{} <= {}: shared vs fresh judge",
            show(s),
            show(t)
        );
    }
    assert!(fwd.iter().any(|b| *b) && fwd.iter().any(|b| !*b));
}

/// `base.B.B...B` with `k` further `.B`s.
fn nest(base: Ty, k: usize, c: crate::Name) -> Ty {
    (0..k).fold(base, |x, _| Ty::Nested(Box::new(x), c))
}

#[test]
fn recursive_family_verdicts_are_pinned() {
    let p = checked(
        "recursive",
        "class A { class B extends A { } } main { final A.B b = new A.B(); }",
    );
    let t = &p.table;
    let a = t.lookup_path(&[t.intern("A")]).unwrap();
    let ab = t.lookup_path(&[t.intern("A"), t.intern("B")]).unwrap();
    let (b, c) = (t.intern("B"), t.intern("C"));
    let env = TypeEnv::new();
    let j = Judge::new(t, &env);
    let mut verdicts = String::new();
    for k in [0, 1, 5, 22, 23, 24, 30] {
        let s = nest(Ty::Class(ab), k, b);
        let goals = [
            (s.clone(), Ty::Class(a)),
            (s.clone().exact(), Ty::Class(a)),
            (s.clone(), Ty::Class(ab)),
            (s.clone(), Ty::Nested(Box::new(Ty::Class(a)), c)),
            (Ty::Class(a), s.clone()),
            (
                s.clone().exact(),
                Ty::Nested(Box::new(Ty::Class(a).exact()), b),
            ),
            (s.clone(), Ty::Prefix(a, Box::new(s.clone()))),
            (
                Ty::Nested(Box::new(Ty::Prefix(a, Box::new(s.clone()))), b),
                Ty::Class(a),
            ),
        ];
        verdicts.push_str(&format!("{k}:"));
        for (s, t) in &goals {
            verdicts.push(if j.sub_pure(s, t) { 'T' } else { 'F' });
        }
        verdicts.push(' ');
    }
    assert_eq!(verdicts, RECURSIVE_VERDICTS);
}

/// Verdicts of `recursive_family_verdicts_are_pinned`, taken from the
/// checker before its judgments were memoised.
const RECURSIVE_VERDICTS: &str =
    "0:TTTFFTTT 1:TTTFFFTT 5:TTTFFFTT 22:TTTFFFTT 23:FFTFFFFF 24:FFFFFFFF 30:FFFFFFFF ";

/// A goal that reaches the depth cut must keep its verdict, and the
/// `false` answers the cut forced on its subgoals must not be tabled.
#[test]
fn depth_cut_answers_are_not_tabled() {
    let (t, ids) = figure12();
    // x0 : x1.class, x1 : x2.class, ..., x299 : AST.Binary!.
    let mut env = TypeEnv::new();
    let xs: Vec<crate::Name> = (0..300).map(|i| t.intern(&format!("x{i}"))).collect();
    for i in 0..299 {
        env.bind(xs[i], Ty::Dep(TPath::var(xs[i + 1])).unmasked());
    }
    env.bind(xs[299], Ty::Class(ids["AST.Binary"]).exact().unmasked());
    let target = Ty::Class(ids["AST.Binary"]).exact();
    let dep = |i: usize| Ty::Dep(TPath::var(xs[i]));
    let j = Judge::new(&t, &env);
    let verdicts: Vec<bool> = [0, 150, 0, 250]
        .iter()
        .map(|i| j.sub_pure(&dep(*i), &target))
        .collect();
    assert_eq!(verdicts, DEPTH_VERDICTS);
}

/// Verdicts of `depth_cut_answers_are_not_tabled` before memoisation.
const DEPTH_VERDICTS: [bool; 4] = [false, true, false, true];

fn sharing_summary(p: &CheckedProgram) -> (Vec<String>, Vec<String>, Vec<String>) {
    let (t, st) = (&p.table, &p.sharing);
    let names = |fs: &mut dyn Iterator<Item = &crate::Name>| {
        fs.map(|f| t.name_str(*f)).collect::<Vec<_>>().join(" ")
    };
    let declared = st
        .declared
        .iter()
        .map(|(d, b, m)| {
            let (d, b) = (t.class_name(*d), t.class_name(*b));
            format!("{d} -> {b} [{}]", names(&mut m.iter()))
        })
        .collect();
    let mut duplicated: Vec<String> = st
        .duplicated
        .iter()
        .map(|((d, b), fs)| {
            let (d, b) = (t.class_name(*d), t.class_name(*b));
            format!("{d} -> {b} [{}]", names(&mut fs.iter()))
        })
        .collect();
    duplicated.sort();
    let mut forwards = Vec::new();
    for id in t.all_ids() {
        for &f in t.field_names(id).iter() {
            for alt in st.forwards(id, f) {
                let (c, f, alt) = (t.class_name(id), t.name_str(f), t.class_name(*alt));
                forwards.push(format!("{c}.{f} -> {alt}"));
            }
        }
    }
    forwards.sort();
    (declared, duplicated, forwards)
}

#[test]
fn lambda_sharing_table_is_pinned() {
    let (declared, duplicated, forwards) = sharing_summary(&lambda_program());
    assert_eq!(declared, LAMBDA_DECLARED);
    assert_eq!(duplicated, LAMBDA_DUPLICATED);
    assert_eq!(forwards, LAMBDA_FORWARDS);
}

/// The λ families' sharing results before the judgments were memoised.
const LAMBDA_DECLARED: &[&str] = &[
    "pair.Exp -> base.Exp []",
    "pair.Var -> base.Var []",
    "pair.Abs -> base.Abs [e]",
    "pair.App -> base.App [f a]",
    "sum.Exp -> base.Exp []",
    "sum.Var -> base.Var []",
    "sum.Abs -> base.Abs [e]",
    "sum.App -> base.App [f a]",
    "sumpair.Exp -> base.Exp []",
    "sumpair.Var -> base.Var []",
    "sumpair.Abs -> base.Abs []",
    "sumpair.App -> base.App []",
];
const LAMBDA_DUPLICATED: &[&str] = &[
    "pair.Abs -> base.Abs [e]",
    "pair.App -> base.App [f a]",
    "pair.Exp -> base.Exp []",
    "pair.Var -> base.Var []",
    "sum.Abs -> base.Abs [e]",
    "sum.App -> base.App [f a]",
    "sum.Exp -> base.Exp []",
    "sum.Var -> base.Var []",
    "sumpair.Abs -> base.Abs [e]",
    "sumpair.App -> base.App [f a]",
    "sumpair.Exp -> base.Exp []",
    "sumpair.Var -> base.Var []",
];
const LAMBDA_FORWARDS: &[&str] = &[
    "pair.Abs.e -> base.Abs",
    "pair.App.a -> base.App",
    "pair.App.f -> base.App",
    "sum.Abs.e -> base.Abs",
    "sum.App.a -> base.App",
    "sum.App.f -> base.App",
    "sumpair.Abs.e -> base.Abs",
    "sumpair.App.a -> base.App",
    "sumpair.App.f -> base.App",
];
