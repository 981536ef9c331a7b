//! The run-time resolver: the Fig. 17 lookups that depend only on the
//! program, computed once per machine and shared by both backends.
//!
//! `mbody(S, m)`, the interpreted field type that drives a lazy implicit
//! view change, `view! ≤ T`, the unique sharing partner under a target,
//! and a class's allocation plan are pure functions of the immutable
//! [`CheckedProgram`]: the class table grows lazily, but materialising a
//! class never changes an answer already given. So each is memoised here
//! on first use, keyed by class ids, interned names and interned types,
//! the way the paper's §6 runtime synthesises a vtable per (class, view)
//! pair. Dependent types are *not* memoised: a backend evaluates them
//! against its frame on every use and asks the resolver about the result.
//!
//! Both [`crate::Machine`] and the bytecode VM own one resolver, which
//! survives their `reset_for_request` like the [`MaskPool`] inside it.
//! The resolver counts nothing: where a call may add a mask set to the
//! pool it reports whether the set was fresh, and each backend counts
//! `Stats::mask_allocs` at its own points.

use crate::error::RtError;
use crate::value::{MaskId, MaskPool, RefVal};
use jns_types::{CExpr, CMethod, CheckedProgram, ClassId, FxHashMap, Judge, Name, Ty, TypeEnv};
use std::collections::BTreeSet;

/// Why a partner search failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartnerErr {
    /// No partner of the view is under the target.
    NoneFound,
    /// More than one partner is under the target.
    Ambiguous,
}

/// How R-ALLOC builds an instance of one class.
#[derive(Debug)]
pub struct AllocPlan<'p> {
    /// The class allocated.
    pub class: ClassId,
    /// Every field of the class masked: `this` during initialisation
    /// (F-OK).
    pub fok: MaskId,
    /// Declared initialisers as `(declaring class, field, initialiser)`,
    /// base-most classes first.
    pub inits: Box<[(ClassId, Name, &'p CExpr)]>,
}

/// The per-machine memo of program-level run-time lookups.
#[derive(Debug)]
pub struct Resolver<'p> {
    prog: &'p CheckedProgram,
    /// Interned mask sets of every reference the owning machine creates.
    pub masks: MaskPool,
    tys: Vec<Ty>,
    ty_ids: FxHashMap<Ty, u32>,
    subtypes: FxHashMap<(ClassId, u32), bool>,
    partners: FxHashMap<(ClassId, u32), Result<ClassId, PartnerErr>>,
    field_types: FxHashMap<(ClassId, Name), Result<(u32, MaskId), String>>,
    mbodies: FxHashMap<(ClassId, Name), Option<(ClassId, &'p CMethod)>>,
    plan_ids: FxHashMap<ClassId, u32>,
    plans: Vec<AllocPlan<'p>>,
}

impl<'p> Resolver<'p> {
    /// An empty resolver for `prog`.
    pub fn new(prog: &'p CheckedProgram) -> Self {
        Resolver {
            prog,
            masks: MaskPool::default(),
            tys: Vec::new(),
            ty_ids: FxHashMap::default(),
            subtypes: FxHashMap::default(),
            partners: FxHashMap::default(),
            field_types: FxHashMap::default(),
            mbodies: FxHashMap::default(),
            plan_ids: FxHashMap::default(),
            plans: Vec::new(),
        }
    }

    /// The program this resolver answers for.
    pub fn program(&self) -> &'p CheckedProgram {
        self.prog
    }

    /// Interns a run-time type; the type is cloned only the first time.
    pub fn intern_ty(&mut self, t: &Ty) -> u32 {
        if let Some(&id) = self.ty_ids.get(t) {
            return id;
        }
        let id = self.tys.len() as u32;
        self.tys.push(t.clone());
        self.ty_ids.insert(t.clone(), id);
        id
    }

    /// The type an id denotes.
    pub fn ty(&self, tid: u32) -> &Ty {
        &self.tys[tid as usize]
    }

    /// Whether `view! ≤ target`.
    pub fn view_subtype(&mut self, view: ClassId, tid: u32) -> bool {
        if let Some(&b) = self.subtypes.get(&(view, tid)) {
            return b;
        }
        let env = TypeEnv::new();
        let judge = Judge::new(&self.prog.table, &env);
        let b = judge.sub_pure(&Ty::Class(view).exact(), &self.tys[tid as usize]);
        self.subtypes.insert((view, tid), b);
        b
    }

    /// The unique sharing partner of `view`, other than `view` itself,
    /// whose exact type is under the target.
    fn partner(&mut self, view: ClassId, tid: u32) -> Result<ClassId, PartnerErr> {
        if let Some(&r) = self.partners.get(&(view, tid)) {
            return r;
        }
        let prog = self.prog;
        let mut found = Err(PartnerErr::NoneFound);
        for &p in prog.sharing.partners(&view) {
            if p != view && self.view_subtype(p, tid) {
                found = match found {
                    Err(PartnerErr::NoneFound) => Ok(p),
                    _ => Err(PartnerErr::Ambiguous),
                };
            }
        }
        self.partners.insert((view, tid), found);
        found
    }

    /// The `view` function (§4.15): re-views `r` at the target with the
    /// mask set `masks`.
    pub fn apply_view(&mut self, r: RefVal, tid: u32, masks: MaskId) -> Result<RefVal, RtError> {
        let view = if self.view_subtype(r.view, tid) && self.masks.is_subset(r.masks, masks) {
            // Case 1: the current view is already compatible.
            r.view
        } else {
            // Case 2: the unique shared partner below the target.
            match self.partner(r.view, tid) {
                Ok(p) => p,
                Err(e) => {
                    let table = &self.prog.table;
                    let (from, to) = (table.class_name(r.view), table.show_ty(self.ty(tid)));
                    return Err(RtError::ViewFailed(match e {
                        PartnerErr::NoneFound => {
                            format!("`{from}` has no shared view under `{to}`")
                        }
                        PartnerErr::Ambiguous => {
                            format!("ambiguous view change from `{from}` to `{to}`")
                        }
                    }));
                }
            }
        };
        Ok(RefVal {
            loc: r.loc,
            view,
            masks,
        })
    }

    /// `ftype(∅, view!, f)`: the type of `f` interpreted in `view`,
    /// canonical and interned, with its masks — the target of the lazy
    /// implicit view change on a read. The flag is `true` when the mask
    /// set entered the pool with this call.
    pub fn field_type(&mut self, view: ClassId, f: Name) -> (Result<(u32, MaskId), RtError>, bool) {
        if let Some(ft) = self.field_types.get(&(view, f)) {
            return (ft.clone().map_err(RtError::BadType), false);
        }
        let prog = self.prog;
        let env = TypeEnv::new();
        let judge = Judge::new(&prog.table, &env);
        let recv = Ty::Class(view).exact().unmasked();
        let mut fresh = false;
        let ft = judge.ftype(&recv, f).map(|ft| {
            let (masks, new) = self.masks.intern(ft.masks);
            fresh = new;
            (self.intern_ty(&judge.canon(&ft.ty)), masks)
        });
        self.field_types.insert((view, f), ft.clone());
        (ft.map_err(RtError::BadType), fresh)
    }

    /// `mbody(view, m)`: the most derived class with an explicit body of
    /// `m`, seen from `view`, and that body.
    pub fn mbody(&mut self, view: ClassId, m: Name) -> Option<(ClassId, &'p CMethod)> {
        let prog = self.prog;
        *self
            .mbodies
            .entry((view, m))
            .or_insert_with(|| prog.mbody(view, m))
    }

    /// The allocation plan of `class`, as an index for
    /// [`Resolver::plan`]. The flag is `true` when the F-OK mask set
    /// entered the pool with this call.
    pub fn alloc_plan(&mut self, class: ClassId) -> (u32, bool) {
        if let Some(&id) = self.plan_ids.get(&class) {
            return (id, false);
        }
        let prog = self.prog;
        let fields = prog.table.fields_of(class);
        let (fok, fresh) = self
            .masks
            .intern(fields.iter().map(|(_, fi)| fi.name).collect());
        let inits = fields
            .iter()
            .rev()
            .filter(|(_, fi)| fi.has_init)
            .filter_map(|&(owner, ref fi)| {
                let init = prog.field_inits.get(&(owner, fi.name))?;
                Some((owner, fi.name, init))
            })
            .collect();
        let id = self.plans.len() as u32;
        self.plans.push(AllocPlan { class, fok, inits });
        self.plan_ids.insert(class, id);
        (id, fresh)
    }

    /// The plan an id from [`Resolver::alloc_plan`] denotes.
    pub fn plan(&self, id: u32) -> &AllocPlan<'p> {
        &self.plans[id as usize]
    }

    // ------------------------------------------------- memo inspection

    /// Every memoised `view! ≤ target` answer.
    pub fn subtype_entries(&self) -> impl Iterator<Item = (ClassId, &Ty, bool)> {
        self.subtypes.iter().map(|(&(v, t), &b)| (v, self.ty(t), b))
    }

    /// Every memoised partner search.
    pub fn partner_entries(
        &self,
    ) -> impl Iterator<Item = (ClassId, &Ty, Result<ClassId, PartnerErr>)> {
        self.partners.iter().map(|(&(v, t), &r)| (v, self.ty(t), r))
    }

    /// Every memoised interpreted field type, with its mask set.
    #[allow(clippy::type_complexity)]
    pub fn field_type_entries(
        &self,
    ) -> impl Iterator<Item = (ClassId, Name, Result<(&Ty, &BTreeSet<Name>), &str>)> {
        self.field_types.iter().map(|(&(v, f), r)| {
            let r = match r {
                Ok((t, m)) => Ok((self.ty(*t), self.masks.get(*m))),
                Err(e) => Err(e.as_str()),
            };
            (v, f, r)
        })
    }

    /// Every memoised `mbody` owner.
    pub fn mbody_entries(&self) -> impl Iterator<Item = (ClassId, Name, Option<ClassId>)> + '_ {
        self.mbodies
            .iter()
            .map(|(&(v, m), r)| (v, m, r.map(|(owner, _)| owner)))
    }

    /// Every allocation plan built so far.
    pub fn plans(&self) -> &[AllocPlan<'p>] {
        &self.plans
    }
}
