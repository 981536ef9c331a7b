//! The run-time resolver both backends share (`jns_eval::Resolver`).
//!
//! * **Audit.** After each corpus program, the λ families and the §2.4
//!   service run on either backend, every entry the resolver memoised is
//!   derived again from scratch against the final class table: `mbody`
//!   owners by `CheckedProgram::mbody`, subtype, partner and field-type
//!   entries by a fresh `Judge`, allocation plans by `fields_of`. The
//!   class table grows lazily while a program runs, so this shows that no
//!   memo went stale as classes materialised.
//! * **Warm caches change nothing.** Each program runs twice on one
//!   machine (and twice on one VM) with `reset_for_request` between the
//!   runs; the second run must give the output, final value, error and
//!   semantic counters of a fresh machine's run, failures included.

use jns_eval::{Machine, PartnerErr, Resolver, RtError, Stats, Value};
use jns_types::{CheckedProgram, ClassId, Judge, Name, Ty, TypeEnv};
use jns_vm::{Vm, VmProgram};
use std::collections::BTreeSet;

mod corpus;
use corpus::{PAPER_EXAMPLES, PAPER_FIGURES};

/// A well-typed program whose cast fails at run time.
const CAST_FAILS: &str = r#"class A { class C { } class D { } }
     main {
       final A!.C c = new A.C();
       print "before";
       final A.D d = (cast A.D)c;
       print "after";
     }"#;

fn programs() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = PAPER_EXAMPLES
        .iter()
        .chain(PAPER_FIGURES)
        .map(|(n, s)| (n.to_string(), s.to_string()))
        .collect();
    out.push(("lambda".into(), bench::workloads::lambda_source(6)));
    out.push(("service".into(), bench::workloads::service_source()));
    out.push(("cast_fails".into(), CAST_FAILS.into()));
    out
}

fn compile(name: &str, src: &str) -> (CheckedProgram, VmProgram) {
    let ast = jns_syntax::parse(src).unwrap_or_else(|e| panic!("[{name}] parse: {e}"));
    let checked = jns_types::check(&ast).unwrap_or_else(|e| panic!("[{name}] check: {e:?}"));
    let code = jns_vm::compile(&checked);
    (checked, code)
}

/// How many entries of each kind an audit checked.
#[derive(Default)]
struct Audited {
    mbodies: usize,
    subtypes: usize,
    partners: usize,
    field_types: usize,
    plans: usize,
}

/// Re-derives every memoised entry of `res`; returns the disagreements.
fn audit(prog: &CheckedProgram, res: &Resolver<'_>, n: &mut Audited) -> Vec<String> {
    let env = TypeEnv::new();
    let sub =
        |view: ClassId, t: &Ty| Judge::new(&prog.table, &env).sub_pure(&Ty::Class(view).exact(), t);
    let mut bad = Vec::new();
    for (view, m, owner) in res.mbody_entries() {
        n.mbodies += 1;
        let fresh = prog.mbody(view, m).map(|(o, _)| o);
        if fresh != owner {
            bad.push(format!(
                "mbody({view:?}, {m:?}): memo {owner:?}, fresh {fresh:?}"
            ));
        }
    }
    for (view, t, memo) in res.subtype_entries() {
        n.subtypes += 1;
        if sub(view, t) != memo {
            bad.push(format!("{view:?}! <= {t:?}: memo {memo}"));
        }
    }
    for (view, t, memo) in res.partner_entries() {
        n.partners += 1;
        let under: Vec<ClassId> = prog
            .sharing
            .partners(&view)
            .iter()
            .copied()
            .filter(|&p| p != view && sub(p, t))
            .collect();
        let fresh = match under[..] {
            [p] => Ok(p),
            [] => Err(PartnerErr::NoneFound),
            _ => Err(PartnerErr::Ambiguous),
        };
        if fresh != memo {
            bad.push(format!(
                "partner({view:?}, {t:?}): memo {memo:?}, fresh {fresh:?}"
            ));
        }
    }
    for (view, f, memo) in res.field_type_entries() {
        n.field_types += 1;
        let judge = Judge::new(&prog.table, &env);
        let recv = Ty::Class(view).exact().unmasked();
        let fresh = judge
            .ftype(&recv, f)
            .map(|ft| (judge.canon(&ft.ty), ft.masks));
        let same = match (&fresh, &memo) {
            (Ok((t, m)), Ok((mt, mm))) => t == *mt && m == *mm,
            (Err(e), Err(me)) => e == me,
            _ => false,
        };
        if !same {
            bad.push(format!(
                "ftype({view:?}, {f:?}): memo {memo:?}, fresh {fresh:?}"
            ));
        }
    }
    for plan in res.plans() {
        n.plans += 1;
        let fields = prog.table.fields_of(plan.class);
        let fok: BTreeSet<Name> = fields.iter().map(|(_, fi)| fi.name).collect();
        let inits: Vec<(ClassId, Name, *const jns_types::CExpr)> = fields
            .iter()
            .rev()
            .filter(|(_, fi)| fi.has_init)
            .filter_map(|(o, fi)| {
                let e = prog.field_inits.get(&(*o, fi.name))?;
                Some((*o, fi.name, e as *const _))
            })
            .collect();
        let memo: Vec<(ClassId, Name, *const jns_types::CExpr)> = plan
            .inits
            .iter()
            .map(|&(o, f, e)| (o, f, e as *const _))
            .collect();
        if res.masks.get(plan.fok) != &fok || memo != inits {
            bad.push(format!("alloc plan of {:?} is stale", plan.class));
        }
    }
    bad
}

#[test]
fn resolver_memos_match_a_fresh_derivation() {
    let mut n = Audited::default();
    for (name, src) in programs() {
        let (prog, code) = compile(&name, &src);
        let mut m = Machine::new(&prog);
        let _ = m.run();
        let bad = audit(&prog, m.resolver(), &mut n);
        assert!(bad.is_empty(), "[{name}] tree-walker: {bad:#?}");
        let mut vm = Vm::new(&prog, &code);
        let _ = vm.run();
        let bad = audit(&prog, vm.resolver(), &mut n);
        assert!(bad.is_empty(), "[{name}] VM: {bad:#?}");
    }
    // Every kind of entry was exercised, so the audit is not vacuous.
    for (kind, count) in [
        ("mbody", n.mbodies),
        ("subtype", n.subtypes),
        ("partner", n.partners),
        ("field type", n.field_types),
        ("alloc plan", n.plans),
    ] {
        assert!(count > 0, "no {kind} entry was audited");
    }
}

/// What one run shows: printed lines, the final value or error, and the
/// semantic counters.
#[derive(Debug, PartialEq)]
struct Run {
    output: Vec<String>,
    result: Result<String, RtError>,
    semantic: (u64, u64, u64, u64, u64),
}

fn observe(output: &mut Vec<String>, result: Result<Value, RtError>, stats: &Stats) -> Run {
    Run {
        output: std::mem::take(output),
        result: result.map(|v| format!("{v:?}")),
        semantic: stats.semantic(),
    }
}

#[test]
fn warm_caches_change_nothing() {
    for (name, src) in programs() {
        let (prog, code) = compile(&name, &src);

        let mut fresh = Machine::new(&prog);
        let r = fresh.run();
        let want = observe(&mut fresh.output, r, &fresh.stats);
        let want_masks = fresh.stats.mask_allocs;
        let mut m = Machine::new(&prog);
        let _ = m.run();
        m.reset_for_request();
        let r = m.run();
        assert_eq!(
            observe(&mut m.output, r, &m.stats),
            want,
            "[{name}] tree-walker"
        );
        // The tree-walker counts mask sets at fixed points, so a warm
        // pool does not change its count either.
        assert_eq!(m.stats.mask_allocs, want_masks, "[{name}] tree-walker");

        let mut fresh = Vm::new(&prog, &code);
        let r = fresh.run();
        let want = observe(&mut fresh.output, r, &fresh.stats);
        let mut vm = Vm::new(&prog, &code);
        let _ = vm.run();
        vm.reset_for_request();
        let r = vm.run();
        assert_eq!(observe(&mut vm.output, r, &vm.stats), want, "[{name}] VM");
    }
}

/// A failed view change served from warm memo tables reports the same
/// error as on a fresh machine, on both backends.
#[test]
fn warm_view_failures_keep_their_message() {
    let (prog, code) = compile("view_fails", "class A { class C { } class D { } } main { }");
    let class = |c: &str| {
        let path = [prog.table.intern("A"), prog.table.intern(c)];
        prog.table.lookup_path(&path).unwrap()
    };
    let (c, d) = (class("C"), class("D"));
    let target = Ty::Class(d).exact();

    let tw = |m: &mut Machine<'_>| {
        let v = m.alloc(c, vec![]).unwrap();
        let r = *v.as_ref_val().unwrap();
        m.apply_view(r, &target, BTreeSet::new())
    };
    let want = tw(&mut Machine::new(&prog));
    assert!(matches!(want, Err(RtError::ViewFailed(_))), "{want:?}");
    let mut m = Machine::new(&prog);
    assert_eq!(tw(&mut m), want);
    m.reset_for_request();
    assert_eq!(tw(&mut m), want, "tree-walker, warm");

    let vm_view = |vm: &mut Vm<'_>| {
        let v = vm.alloc(c, vec![]).unwrap();
        let r = *v.as_ref_val().unwrap();
        vm.view_as(r, &target, BTreeSet::new())
    };
    let mut vm = Vm::new(&prog, &code);
    assert_eq!(vm_view(&mut vm), want, "VM agrees with the tree-walker");
    vm.reset_for_request();
    assert_eq!(vm_view(&mut vm), want, "VM, warm");
}
