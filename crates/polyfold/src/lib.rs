//! # polyfold — compacting the DDG into polyhedra (paper §5)
//!
//! The third Poly-Prof stage: the per-context streams produced by `polyddg`
//! (instruction points, memory accesses, dependences) are *folded* into
//! unions of polyhedra plus affine label functions, with explicit
//! over-approximation flags for the non-affine parts. On top of the raw
//! fold, this crate implements:
//!
//! * **SCEV recognition** — statements whose produced values are affine in
//!   their IIV (loop-counter increments, address computations) are flagged
//!   and removed together with their dependence chains, exactly like the
//!   paper's I5/I8 example (§5, "SCEV recognition");
//! * **access-function folding** — addresses as affine functions of IVs,
//!   the basis of the strided-access (`%stride 0/1`) statistics;
//! * the Table 1 / Table 2 textual rendering of dependence streams and
//!   folded dependence relations.

pub mod fitter;
pub mod pass2;
pub mod replay;
pub mod stream;

pub use fitter::{FitResult, OnlineAffineFitter, RatAffine};
/// The telemetry crate whose [`polytrace::Collector`] [`pass2::Pass2`]
/// records into, and whose JSON escaping the analyses downstream share.
pub use polytrace;
pub use stream::{FoldedDomain, FoldedStream, LabelFold, StreamFolder};

use polyddg::{expand_run, BodyKey, DepKind, EventKind, FoldSink, KMAX};
use polyiiv::context::{ContextInterner, StmtId};
use polyir::{Instr, Program};
use polyresist::ResourceBudget;
use std::collections::HashMap;
use std::sync::Arc;

/// A folded statement: its iteration domain plus the folded produced-value
/// function.
#[derive(Debug, Clone)]
pub struct FoldedStmt {
    /// The statement id (context + instruction).
    pub stmt: StmtId,
    /// Folded iteration domain.
    pub domain: FoldedDomain,
    /// Folded produced values (`LabelFold::Affine` ⇒ SCEV candidate).
    pub values: LabelFold,
    /// True once classified as a scalar-evolution statement.
    pub is_scev: bool,
}

/// A folded memory-access relation for one statement.
#[derive(Debug, Clone)]
pub struct FoldedAccess {
    /// The accessing statement.
    pub stmt: StmtId,
    /// Domain of accesses.
    pub domain: FoldedDomain,
    /// Folded address function (affine ⇒ strided access).
    pub addr: LabelFold,
    /// True for stores.
    pub is_write: bool,
}

impl FoldedAccess {
    /// The address stride along dimension `k`, if the access is affine.
    pub fn stride(&self, k: usize) -> Option<polylib::Rat> {
        match &self.addr {
            LabelFold::Affine(fs) => fs.first().map(|f| f.coeffs[k]),
            _ => None,
        }
    }
}

/// A folded dependence relation: dst domain + affine map to the producer.
///
/// Dependence streams are split by *carried class* — the index of the first
/// coordinate where producer and consumer differ — so piecewise-affine
/// dependences (e.g. boundary-clamped stencils) fold into a *union* of
/// relations, one per class, instead of one big over-approximation. This is
/// the practical form of the paper's union-of-polyhedra folding.
#[derive(Debug, Clone)]
pub struct FoldedDep {
    /// Dependence kind.
    pub kind: DepKind,
    /// Producer statement.
    pub src: StmtId,
    /// Consumer statement.
    pub dst: StmtId,
    /// Carried class: first coordinate index where producer and consumer
    /// coordinates differ (None = loop-independent instances).
    pub class: Option<usize>,
    /// Domain over the *consumer* coordinates.
    pub domain: FoldedDomain,
    /// Folded producer coordinates as functions of consumer coordinates.
    pub src_map: LabelFold,
    /// Observed per-dimension distance ranges `dst_c − src_c` (over the
    /// common coordinate prefix) — exact facts of this execution, usable
    /// even when the producer map is not affine.
    pub delta: Vec<(i64, i64)>,
}

impl FoldedDep {
    /// The affine source map, if exact.
    pub fn affine_src_map(&self) -> Option<&[RatAffine]> {
        match &self.src_map {
            LabelFold::Affine(fs) => Some(fs),
            _ => None,
        }
    }
}

/// The complete folded DDG.
#[derive(Debug, Default)]
pub struct FoldedDdg {
    /// Folded statements, indexed by statement id.
    pub stmts: HashMap<StmtId, FoldedStmt>,
    /// Folded dependences.
    pub deps: Vec<FoldedDep>,
    /// Folded accesses per statement.
    pub accesses: HashMap<StmtId, FoldedAccess>,
    /// Total dynamic operations folded.
    pub total_ops: u64,
    /// Dynamic ops of statements removed as SCEV/control overhead (these
    /// are affine by construction and still count toward `%Aff`).
    pub removed_affine_ops: u64,
}

impl FoldedDdg {
    /// Fraction of dynamic operations inside *exact* affine statement
    /// domains with affine-or-absent labels — the paper's `%Aff` metric.
    pub fn affine_fraction(&self) -> f64 {
        if self.total_ops == 0 {
            return 0.0;
        }
        let affine_ops: u64 = self
            .stmts
            .values()
            .filter(|s| {
                let access_affine = match self.accesses.get(&s.stmt) {
                    Some(a) => a.addr.is_affine(),
                    None => true,
                };
                s.domain.exact && !matches!(s.values, LabelFold::Range(_)) && access_affine
            })
            .map(|s| s.domain.count)
            .sum::<u64>()
            + self.removed_affine_ops;
        affine_ops as f64 / self.total_ops as f64
    }

    /// Statements currently classified as SCEV.
    pub fn scev_stmts(&self) -> Vec<StmtId> {
        self.stmts
            .values()
            .filter(|s| s.is_scev)
            .map(|s| s.stmt)
            .collect()
    }

    /// Remove SCEV statements and every dependence touching them (the
    /// paper's post-fold DDG cleanup). Returns (stmts removed, deps removed).
    pub fn remove_scevs(&mut self) -> (usize, usize) {
        let scev: std::collections::HashSet<StmtId> = self.scev_stmts().into_iter().collect();
        self.removed_affine_ops += self
            .stmts
            .values()
            .filter(|s| scev.contains(&s.stmt))
            .map(|s| s.domain.count)
            .sum::<u64>();
        let before = self.deps.len();
        self.deps
            .retain(|d| !scev.contains(&d.src) && !scev.contains(&d.dst));
        let deps_removed = before - self.deps.len();
        let stmts_before = self.stmts.len();
        self.stmts.retain(|id, _| !scev.contains(id));
        self.accesses.retain(|id, _| !scev.contains(id));
        (stmts_before - self.stmts.len(), deps_removed)
    }

    /// Number of *statements* after folding (what the polyhedral back-end
    /// actually has to schedule — the paper's scalability argument).
    pub fn n_stmts(&self) -> usize {
        self.stmts.len()
    }

    /// Number of folded statements left over-approximated: inexact domain,
    /// range-folded labels, or a non-affine access function. The telemetry
    /// layer reports this as `overapprox_stmts`.
    pub fn overapprox_stmts(&self) -> usize {
        self.stmts
            .values()
            .filter(|s| {
                let access_affine = match self.accesses.get(&s.stmt) {
                    Some(a) => a.addr.is_affine(),
                    None => true,
                };
                !(s.domain.exact && !matches!(s.values, LabelFold::Range(_)) && access_affine)
            })
            .count()
    }

    /// Deterministic byte rendering of the whole folded DDG: statements and
    /// accesses sorted by id, dependences in their canonical `(kind, src,
    /// dst, class)` order, totals last. Two DDGs are byte-identical here iff
    /// they fold the same facts — the record→replay identity gate and
    /// `refold --diff` compare exactly this text.
    pub fn canonical_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut stmt_ids: Vec<StmtId> = self.stmts.keys().copied().collect();
        stmt_ids.sort();
        for id in &stmt_ids {
            writeln!(out, "stmt {:?}", self.stmts[id]).expect("string write");
        }
        let mut acc_ids: Vec<StmtId> = self.accesses.keys().copied().collect();
        acc_ids.sort();
        for id in &acc_ids {
            writeln!(out, "access {:?}", self.accesses[id]).expect("string write");
        }
        let mut deps: Vec<&FoldedDep> = self.deps.iter().collect();
        deps.sort_by_key(|d| (d.kind, d.src, d.dst, d.class));
        for d in deps {
            writeln!(out, "dep {d:?}").expect("string write");
        }
        writeln!(
            out,
            "total_ops {} removed_affine_ops {}",
            self.total_ops, self.removed_affine_ops
        )
        .expect("string write");
        out
    }
}

/// Folding configuration (ablation knobs; defaults reproduce the paper's
/// pipeline).
#[derive(Debug, Clone, Copy)]
pub struct FoldOptions {
    /// Split dependence streams by carried class (union-of-relations
    /// folding). Disabling it folds each (kind, src, dst) into a single
    /// relation, which over-approximates piecewise-affine dependences — the
    /// ablation shows how much parallelism that costs.
    pub split_classes: bool,
    /// Verify fixed affine candidates with overflow-checked `i64`
    /// arithmetic, falling back to exact rationals on overflow. Disabling it
    /// forces the pure-rational verification path everywhere — the
    /// reference `tests/fitter_differential.rs` pins the fast path against.
    pub fast_fit: bool,
}

impl Default for FoldOptions {
    fn default() -> Self {
        FoldOptions {
            split_classes: true,
            fast_fit: true,
        }
    }
}

/// The folding sink: implements the `polyddg` folding interface, folding
/// each context's stream online.
///
/// Statement ids are dense (handed out in order by the interner), so
/// per-statement folders live in flat vectors indexed by `StmtId` — the
/// per-event folder lookup is an array index, not a hash probe. Dependence
/// streams key on `(kind, src, dst, class)`, resolved through a dense
/// per-consumer table: slot `dst.0` holds the (few) relations targeting
/// that statement, scanned linearly — no hashing, no MRU, and locality
/// follows the consumer id.
#[derive(Debug, Default)]
pub struct FoldingSink {
    /// Statement folders, indexed by `StmtId::0`.
    stmts: Vec<Option<StreamFolder>>,
    /// Access folders (+ is_write), indexed by `StmtId::0`.
    accesses: Vec<Option<(StreamFolder, bool)>>,
    /// Dependence folders (which also keep the per-dimension distance
    /// ranges), appended in first-seen order; `dep_slots` maps keys to
    /// slots.
    deps: Vec<DepEntry>,
    /// Per-consumer dependence table, indexed by `dst.0`: each entry is
    /// `(kind, src, class, slot)` for one relation targeting that consumer.
    dep_slots: Vec<Vec<(DepKind, StmtId, u8, u32)>>,
    total_ops: u64,
    options: FoldOptions,
    stats: FoldStats,
    /// Optional resource budget: folder allocations are charged against it,
    /// and once it reports pressure every touched folder degrades to coarse
    /// (box + count) folding. `None` costs one branch per event.
    budget: Option<Arc<ResourceBudget>>,
}

/// Per-sink folding telemetry: plain fields on the hot path, harvested by
/// the owning stage into the run's `polytrace` collector.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FoldStats {
    /// Fold-interface events consumed (points + accesses + dependences).
    pub events_folded: u64,
    /// Dependence events consumed (subset of `events_folded`).
    pub deps_folded: u64,
    /// Folders switched to coarse (box + count) folding under budget
    /// pressure.
    pub budget_degraded: u64,
    /// Events a folder accepted by verified prediction, without entering a
    /// fitter (subset of `events_folded`; see [`StreamFolder::push`]).
    pub predicted: u64,
}

/// Dependence stream key: kind, producer, consumer, carried class.
type DepKey = (DepKind, StmtId, StmtId, u8);

/// One dependence stream: key and folder.
type DepEntry = (DepKey, StreamFolder);

/// Carried-class tag for loop-independent dependences.
const CLASS_NONE: u8 = u8::MAX;

impl FoldingSink {
    /// Fresh sink with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh sink with explicit options (ablation studies).
    pub fn with_options(options: FoldOptions) -> Self {
        FoldingSink {
            options,
            ..Self::default()
        }
    }

    /// This sink's folding telemetry so far (read before `finalize`). The
    /// folders count their own predicted pushes; they are summed here, at
    /// stage end, not per event.
    pub fn fold_stats(&self) -> FoldStats {
        let folders = (self.stmts.iter().flatten())
            .chain(self.accesses.iter().flatten().map(|(f, _)| f))
            .chain(self.deps.iter().map(|(_, f)| f));
        FoldStats {
            predicted: folders.map(StreamFolder::predicted).sum(),
            ..self.stats
        }
    }

    /// Attach a resource budget. Folder allocations are charged against the
    /// byte limit; once the budget latches pressure, every folder touched
    /// afterwards degrades to coarse mode — the finalized domains stay
    /// supersets of the exact ones, flagged `exact = false`.
    pub fn set_budget(&mut self, budget: Arc<ResourceBudget>) {
        self.budget = Some(budget);
    }

    /// Rough per-folder heap cost charged against the budget.
    #[inline]
    fn folder_cost(dim: usize) -> u64 {
        (std::mem::size_of::<StreamFolder>() + dim * 2 * std::mem::size_of::<OnlineAffineFitter>())
            as u64
    }

    /// Degrade `folder` if the budget latched pressure; counts transitions.
    #[inline]
    fn maybe_degrade(
        budget: &Option<Arc<ResourceBudget>>,
        stats: &mut FoldStats,
        folder: &mut StreamFolder,
    ) {
        if let Some(b) = budget {
            if b.under_pressure() && !folder.is_coarse() {
                folder.degrade();
                stats.budget_degraded += 1;
            }
        }
    }

    /// Finalize all folders into a [`FoldedDdg`], classifying SCEVs using
    /// the program (only register-arithmetic instructions qualify).
    pub fn finalize(self, prog: &Program, interner: &ContextInterner) -> FoldedDdg {
        let mut out = FoldedDdg {
            total_ops: self.total_ops,
            ..Default::default()
        };
        let stmts = self
            .stmts
            .into_iter()
            .enumerate()
            .filter_map(|(i, f)| Some((StmtId(i as u32), f?)));
        for (stmt, folder) in stmts {
            let folded = folder.finalize();
            let instr = prog.instr(interner.stmt_info(stmt).instr);
            let scev_eligible = matches!(
                instr,
                Instr::Const { .. } | Instr::Move { .. } | Instr::IOp { .. }
            );
            // Compare instructions compute the branch predicate; their 0/1
            // value sequence is never affine, but the information it carries
            // (the loop bounds) is already captured by the folded domain —
            // they are loop-control overhead, removable like SCEVs.
            let is_cmp = matches!(instr, Instr::ICmp { .. } | Instr::FCmp { .. });
            // Classic scalar-evolution recurrences — `r = r ± const` — are
            // SCEVs along their loop even when the *global* value is only
            // piecewise affine (e.g. an IV starting at a data-dependent
            // lower bound). Their dependence chains are induction
            // bookkeeping and must be ignored (paper §5).
            let is_self_increment = matches!(
                instr,
                Instr::IOp {
                    dst,
                    op: polyir::IBinOp::Add | polyir::IBinOp::Sub,
                    a,
                    b,
                } if (*a == polyir::Operand::Reg(*dst)
                        && matches!(b, polyir::Operand::ImmI(_)))
                    || (*b == polyir::Operand::Reg(*dst)
                        && matches!(a, polyir::Operand::ImmI(_)))
            );
            let values = if is_cmp {
                LabelFold::None
            } else {
                folded.labels
            };
            let is_scev = is_cmp
                || is_self_increment
                || (folded.domain.exact && scev_eligible && values.is_affine());
            out.stmts.insert(
                stmt,
                FoldedStmt {
                    stmt,
                    domain: folded.domain,
                    values,
                    is_scev,
                },
            );
        }
        let accesses = self
            .accesses
            .into_iter()
            .enumerate()
            .filter_map(|(i, f)| Some((StmtId(i as u32), f?)));
        for (stmt, (folder, is_write)) in accesses {
            let folded = folder.finalize();
            out.accesses.insert(
                stmt,
                FoldedAccess {
                    stmt,
                    domain: folded.domain,
                    addr: folded.labels,
                    is_write,
                },
            );
        }
        for ((kind, src, dst, class), mut folder) in self.deps {
            let delta = folder.distances();
            let folded = folder.finalize();
            out.deps.push(FoldedDep {
                kind,
                src,
                dst,
                class: if class == CLASS_NONE {
                    None
                } else {
                    Some(class as usize)
                },
                domain: folded.domain,
                src_map: folded.labels,
                delta,
            });
        }
        // Deterministic order for reporting.
        out.deps.sort_by_key(|d| (d.kind, d.src, d.dst, d.class));
        out
    }
}

impl FoldingSink {
    /// Dense per-statement slot, growing the table on first sight.
    #[inline]
    fn stmt_slot<T>(v: &mut Vec<Option<T>>, stmt: StmtId) -> &mut Option<T> {
        let idx = stmt.0 as usize;
        if idx >= v.len() {
            v.resize_with(idx + 1, || None);
        }
        &mut v[idx]
    }

    /// The statement folder of `stmt`, built for `dim` coordinates on first
    /// sight (and charged to the budget).
    #[inline(always)]
    fn stmt_folder(&mut self, stmt: StmtId, dim: usize) -> &mut StreamFolder {
        let budget = &self.budget;
        let fast_fit = self.options.fast_fit;
        let folder = Self::stmt_slot(&mut self.stmts, stmt).get_or_insert_with(|| {
            if let Some(b) = budget {
                b.charge(Self::folder_cost(dim));
            }
            StreamFolder::with_fast_fit(dim, fast_fit)
        });
        Self::maybe_degrade(budget, &mut self.stats, folder);
        folder
    }

    /// The access folder of `stmt`, as [`stmt_folder`](Self::stmt_folder);
    /// the first access decides whether it folds a store.
    #[inline(always)]
    fn access_folder(&mut self, stmt: StmtId, dim: usize, is_write: bool) -> &mut StreamFolder {
        let budget = &self.budget;
        let fast_fit = self.options.fast_fit;
        let (folder, _) = Self::stmt_slot(&mut self.accesses, stmt).get_or_insert_with(|| {
            if let Some(b) = budget {
                b.charge(Self::folder_cost(dim));
            }
            (StreamFolder::with_fast_fit(dim, fast_fit), is_write)
        });
        Self::maybe_degrade(budget, &mut self.stats, folder);
        folder
    }

    /// The carried class of a dependence from `src` to `dst`.
    #[inline(always)]
    fn class_of(&self, src: &[i64], dst: &[i64]) -> u8 {
        if !self.options.split_classes {
            return 0;
        }
        let common = src.len().min(dst.len());
        (0..common)
            .find(|&i| src[i] != dst[i])
            .map(|i| i as u8)
            .unwrap_or(CLASS_NONE)
    }

    /// The folder of the dependence stream `(kind, src, dst, class)`, built
    /// on first sight.
    #[inline(always)]
    fn dep_folder(&mut self, key: DepKey, src_dim: usize, dst_dim: usize) -> &mut StreamFolder {
        let slot = self.dep_slot(key, src_dim, dst_dim);
        let (_, folder) = &mut self.deps[slot];
        Self::maybe_degrade(&self.budget, &mut self.stats, folder);
        folder
    }

    /// The slot in `deps` of [`dep_folder`](Self::dep_folder)'s folder,
    /// built (and charged to the budget) on first sight.
    #[inline(always)]
    fn dep_slot(
        &mut self,
        (kind, src, dst, class): DepKey,
        src_dim: usize,
        dst_dim: usize,
    ) -> usize {
        let idx = dst.0 as usize;
        if idx >= self.dep_slots.len() {
            self.dep_slots.resize_with(idx + 1, Vec::new);
        }
        let table = &mut self.dep_slots[idx];
        let slot = match table
            .iter()
            .find(|e| e.0 == kind && e.1 == src && e.2 == class)
        {
            Some(e) => e.3,
            None => {
                if let Some(b) = &self.budget {
                    b.charge(Self::folder_cost(dst_dim));
                }
                let slot = self.deps.len() as u32;
                self.deps.push((
                    (kind, src, dst, class),
                    StreamFolder::for_dependence(dst_dim, self.options.fast_fit, src_dim),
                ));
                table.push((kind, src, class, slot));
                slot
            }
        };
        slot as usize
    }

    /// Resolve the folder of a run's key as the key's next event would —
    /// built and charged on first sight, degraded once the budget has
    /// latched pressure — and return its index for
    /// [`folder_at`](Self::folder_at).
    fn resolve(&mut self, key: &BodyKey<'_>, class: u8) -> usize {
        let dim = key.split;
        match key.kind {
            EventKind::Point | EventKind::PointValue => {
                self.stmt_folder(key.a, dim);
                key.a.0 as usize
            }
            EventKind::Load | EventKind::Store => {
                self.access_folder(key.a, dim, key.kind == EventKind::Store);
                key.a.0 as usize
            }
            EventKind::Dep(kind) => {
                let slot = self.dep_slot((kind, key.a, key.b, class), dim, key.base.len() - dim);
                Self::maybe_degrade(&self.budget, &mut self.stats, &mut self.deps[slot].1);
                slot
            }
        }
    }

    /// The folder [`resolve`](Self::resolve) returned `at` for, as it is.
    fn folder_at(&mut self, kind: EventKind, at: usize) -> &mut StreamFolder {
        let folder = match kind {
            EventKind::Point | EventKind::PointValue => self.stmts[at].as_mut(),
            EventKind::Load | EventKind::Store => self.accesses[at].as_mut().map(|(f, _)| f),
            EventKind::Dep(_) => self.deps.get_mut(at).map(|(_, f)| f),
        };
        folder.expect("a resolved folder")
    }

    /// Fold `m` repeats of `key`, from `base` on, into its folder `at`.
    fn fold_run(&mut self, key: &BodyKey<'_>, at: usize, base: &[i64], m: u64) {
        let (x, y) = base.split_at(key.split);
        let (sx, sy) = key.stride.split_at(key.split);
        let folder = self.folder_at(key.kind, at);
        match key.kind {
            EventKind::Point => folder.push_run(x, sx, None, m),
            EventKind::PointValue | EventKind::Load | EventKind::Store => {
                folder.push_run(x, sx, Some((y, sy)), m)
            }
            EventKind::Dep(_) => folder.push_run(y, sy, Some((x, sx)), m),
        }
    }

    /// The carried class of a dependence key's events along a run of `n`,
    /// if it is one class throughout. Every coordinate is linear in `t`
    /// when its last value `base + n·stride` is an `i64` (it cannot wrap in
    /// between), and so is each difference `src − dst`: one that is 0 at
    /// both ends is 0 throughout, one that is non-zero with one sign at
    /// both ends is non-zero throughout.
    fn run_class(&self, key: &BodyKey<'_>, n: u64) -> Option<u8> {
        if !self.options.split_classes {
            return Some(0);
        }
        let n = i64::try_from(n).ok()?;
        let at = |i: usize, t: i64| key.stride[i].checked_mul(t)?.checked_add(key.base[i]);
        let (src_len, dst_len) = (key.split, key.base.len() - key.split);
        let mut class = CLASS_NONE;
        for i in 0..src_len.min(dst_len) {
            let j = key.split + i;
            let (src_end, dst_end) = (at(i, n)?, at(j, n)?);
            let first = at(i, 1)? as i128 - at(j, 1)? as i128;
            let end = src_end as i128 - dst_end as i128;
            if first == 0 && end == 0 {
                continue;
            }
            if first.signum() * end.signum() != 1 {
                return None;
            }
            class = i as u8;
            break;
        }
        Some(class)
    }
}

impl FoldSink for FoldingSink {
    fn instr_point(&mut self, stmt: StmtId, coords: &[i64], value: Option<i64>) {
        self.total_ops += 1;
        self.stats.events_folded += 1;
        let folder = self.stmt_folder(stmt, coords.len());
        match value {
            Some(v) => folder.push(coords, Some(&[v])),
            None => folder.push(coords, None),
        }
    }

    fn mem_access(&mut self, stmt: StmtId, coords: &[i64], addr: u64, is_write: bool) {
        self.stats.events_folded += 1;
        self.access_folder(stmt, coords.len(), is_write)
            .push(coords, Some(&[addr as i64]));
    }

    fn dependence(
        &mut self,
        kind: DepKind,
        src: StmtId,
        src_coords: &[i64],
        dst: StmtId,
        dst_coords: &[i64],
    ) {
        self.stats.events_folded += 1;
        self.stats.deps_folded += 1;
        let class = self.class_of(src_coords, dst_coords);
        let key = (kind, src, dst, class);
        self.dep_folder(key, src_coords.len(), dst_coords.len())
            .push(dst_coords, Some(src_coords));
    }

    /// Fold each key's `n` events into its own folder at once
    /// ([`StreamFolder::push_run`]): the folders are independent, so the
    /// order across keys does not matter — except to a budget, which is
    /// charged and degrades folders as the events would have it. Every
    /// key's folder is resolved first, in body order, as the first repeat
    /// resolves it: a new folder is charged, and one resolved after the
    /// budget latched pressure degrades. Only a new folder charges, so
    /// pressure can latch only there; if it latches at key `j`, the keys
    /// before `j` fold their first repeat precise and the rest coarse, since
    /// the second repeat finds them degraded. Spelled out event by event
    /// instead when two keys feed one folder — a point with and without a
    /// value, or a load and a store, of one statement, or one dependence key
    /// twice — or when a dependence key's carried class changes along the
    /// run.
    fn body_run(&mut self, body: &[BodyKey<'_>], n: u64) {
        let k = body.len();
        if k > KMAX {
            expand_run(self, body, n);
            return;
        }
        let mut whole = true;
        let mut folders = [(0u8, StmtId(0), None); KMAX];
        let mut classes = [0u8; KMAX];
        for ((key, folder), class) in body.iter().zip(&mut folders).zip(&mut classes) {
            *folder = match key.kind {
                EventKind::Point | EventKind::PointValue => (0, key.a, None),
                EventKind::Load | EventKind::Store => (1, key.a, None),
                EventKind::Dep(kind) => {
                    match self.run_class(key, n) {
                        Some(c) => *class = c,
                        None => whole = false,
                    }
                    (2 + kind as u8, key.a, Some(key.b))
                }
            };
        }
        let folders = &mut folders[..k];
        folders.sort_unstable();
        if !whole || folders.windows(2).any(|w| w[0] == w[1]) {
            expand_run(self, body, n);
            return;
        }
        // `latch`: the first key resolved under pressure (`k`: none).
        let mut at = [0; KMAX];
        let mut latch = k;
        for (i, (key, &class)) in body.iter().zip(&classes).enumerate() {
            at[i] = self.resolve(key, class);
            if latch == k && self.budget.as_ref().is_some_and(|b| b.under_pressure()) {
                latch = i;
            }
        }
        for (i, (key, &at)) in body.iter().zip(&at).enumerate() {
            self.stats.events_folded += n;
            match key.kind {
                EventKind::Point | EventKind::PointValue => self.total_ops += n,
                EventKind::Load | EventKind::Store => {}
                EventKind::Dep(_) => self.stats.deps_folded += n,
            }
            if i < latch && latch < k && n > 1 {
                // Pressure latched at a later key of the first repeat.
                self.fold_run(key, at, key.base, 1);
                let folder = self.folder_at(key.kind, at);
                if !folder.is_coarse() {
                    folder.degrade();
                    self.stats.budget_degraded += 1;
                }
                let next: Vec<i64> = (key.base.iter().zip(key.stride))
                    .map(|(&w, &s)| w.wrapping_add(s))
                    .collect();
                self.fold_run(key, at, &next, n - 1);
            } else {
                self.fold_run(key, at, key.base, n);
            }
        }
    }

    fn events_seen(&self) -> u64 {
        self.stats.events_folded
    }
}

/// Fold a whole program end-to-end through [`pass2::run`]: pass 1
/// (structure), pass 2 (DDG → folding). Returns the folded DDG, the
/// interner, and the structure. Panics on a VM error.
pub fn fold_program(prog: &Program) -> (FoldedDdg, ContextInterner, polycfg::StaticStructure) {
    let source = pass2::Source::Live(pass2::Live::default());
    let out = pass2::run(prog, &source, &pass2::Pass2::default()).unwrap_or_else(|e| panic!("{e}"));
    (out.ddg, out.interner, out.structure)
}

/// Render a folded dependence like the paper's Table 2 rows:
/// polyhedron + affine producer map.
pub fn display_dep(dep: &FoldedDep, dst_names: &[&str], src_names: &[&str]) -> String {
    let dom = dep.domain.poly.display(dst_names);
    let map = match &dep.src_map {
        LabelFold::Affine(fs) => fs
            .iter()
            .enumerate()
            .map(|(i, f)| {
                format!(
                    "{} = {}",
                    src_names.get(i).copied().unwrap_or("?"),
                    f.display(dst_names)
                )
            })
            .collect::<Vec<_>>()
            .join(", "),
        LabelFold::Range(rs) => format!("approx {rs:?}"),
        LabelFold::None => "-".into(),
    };
    format!("{dom}  {map}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyir::build::ProgramBuilder;
    use polyir::IBinOp;

    /// A 1-D reduction: s += a[i]. The loop-counter increment must be SCEV;
    /// the accumulated reduction (through a register) must not.
    #[test]
    fn scev_recognition_on_counter() {
        let mut pb = ProgramBuilder::new("t");
        let base = pb.array_f64(&[1.0; 16]);
        let mut f = pb.func("main", 0);
        let acc = f.const_f(0.0);
        f.for_loop("L", 0i64, 16i64, 1, |f, i| {
            let v = f.load(base as i64, i);
            f.fop_to(acc, polyir::FBinOp::Add, acc, v);
        });
        f.ret(Some(acc.into()));
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let (mut ddg, interner, _) = fold_program(&p);
        // The latch add (i = i + 1) folds to an affine value → SCEV.
        let scevs = ddg.scev_stmts();
        assert!(!scevs.is_empty());
        let has_latch_add = scevs.iter().any(|s| {
            matches!(
                p.instr(interner.stmt_info(*s).instr),
                Instr::IOp {
                    op: IBinOp::Add,
                    ..
                }
            )
        });
        assert!(has_latch_add, "loop counter increment must be SCEV");
        // Removing SCEVs shrinks statements and dependences.
        let stmts_before = ddg.n_stmts();
        let deps_before = ddg.deps.len();
        let (sr, dr) = ddg.remove_scevs();
        assert!(sr > 0 && dr > 0);
        assert_eq!(ddg.n_stmts(), stmts_before - sr);
        assert_eq!(ddg.deps.len(), deps_before - dr);
        // The float accumulation chain (Flow through a register) survives.
        assert!(
            ddg.deps.iter().any(|d| d.kind == DepKind::Reg),
            "reduction chain must survive"
        );
    }

    /// Strided accesses fold to affine address functions: a[2i] has stride 2.
    #[test]
    fn access_functions_fold_with_stride() {
        let mut pb = ProgramBuilder::new("t");
        let base = pb.alloc(64);
        let mut f = pb.func("main", 0);
        f.for_loop("L", 0i64, 8i64, 1, |f, i| {
            let off = f.mul(i, 2i64);
            f.store(base as i64, off, i);
        });
        f.ret(None);
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let (ddg, _, _) = fold_program(&p);
        let store_access = ddg
            .accesses
            .values()
            .find(|a| a.is_write)
            .expect("store access folded");
        // coords = (root, i): stride along dim 1 must be 2
        assert_eq!(store_access.stride(1), Some(polylib::Rat::int(2)));
        assert!(store_access.domain.exact);
    }

    /// Loop-carried dependence folds to an affine producer map with
    /// distance 1 (the paper's I4→I4 row in Table 2).
    #[test]
    fn carried_dep_folds_to_affine_map() {
        let mut pb = ProgramBuilder::new("t");
        let base = pb.alloc(64);
        let mut f = pb.func("main", 0);
        f.for_loop("L", 0i64, 8i64, 1, |f, i| {
            let prev = f.load(base as i64, i);
            let v = f.add(prev, 1i64);
            let i1 = f.add(i, 1i64);
            f.store(base as i64, i1, v);
        });
        f.ret(None);
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let (ddg, _, _) = fold_program(&p);
        let flow = ddg
            .deps
            .iter()
            .find(|d| d.kind == DepKind::Flow && d.domain.count > 1)
            .expect("carried flow dependence folded");
        let map = flow.affine_src_map().expect("affine producer map");
        // producer i = consumer i - 1 on the loop dim (last component)
        let last = map.last().unwrap();
        assert_eq!(*last.coeffs.last().unwrap(), polylib::Rat::int(1));
        assert_eq!(last.c, polylib::Rat::int(-1));
        assert!(flow.domain.exact);
        // domain lower bound is 1 on the loop dim (first iteration reads
        // uninitialized memory → no dependence)
        assert_eq!(*flow.domain.box_lo.last().unwrap(), 1);
    }

    /// End-to-end %Aff: a fully affine kernel is ≈ 100% affine.
    #[test]
    fn affine_fraction_high_for_regular_kernel() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.alloc(256);
        let b = pb.alloc(256);
        let mut f = pb.func("main", 0);
        f.for_loop("Li", 0i64, 8i64, 1, |f, i| {
            f.for_loop("Lj", 0i64, 8i64, 1, |f, j| {
                let row = f.mul(i, 8i64);
                let idx = f.add(row, j);
                let v = f.load(a as i64, idx);
                let w = f.fmul(v, 2.0f64);
                f.store(b as i64, idx, w);
            });
        });
        f.ret(None);
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let (ddg, _, _) = fold_program(&p);
        assert!(
            ddg.affine_fraction() > 0.95,
            "affine fraction was {}",
            ddg.affine_fraction()
        );
    }

    /// Indirection (a[b[i]]) produces non-affine access functions.
    #[test]
    fn indirection_is_nonaffine() {
        let mut pb = ProgramBuilder::new("t");
        // permutation-ish index array
        let idx = pb.array_i64(&[3, 0, 7, 1, 6, 2, 5, 4]);
        let data = pb.alloc(16);
        let mut f = pb.func("main", 0);
        f.for_loop("L", 0i64, 8i64, 1, |f, i| {
            let k = f.load(idx as i64, i);
            let v = f.load(data as i64, k); // indirect
            let _ = v;
        });
        f.ret(None);
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let (ddg, interner, _) = fold_program(&p);
        // The indirect load's address function must be non-affine (Range).
        let nonaffine_loads = ddg
            .accesses
            .values()
            .filter(|a| !a.is_write && matches!(a.addr, LabelFold::Range(_)))
            .count();
        assert!(nonaffine_loads >= 1, "indirect access must fold to a range");
        let _ = interner;
    }

    /// Budget pressure degrades folders: the folded DDG reports
    /// over-approximated statements but keeps every key and count.
    #[test]
    fn budget_pressure_degrades_folding() {
        let mut pb = ProgramBuilder::new("t");
        let base = pb.alloc(64);
        let mut f = pb.func("main", 0);
        f.for_loop("L", 0i64, 8i64, 1, |f, i| {
            let v = f.load(base as i64, i);
            let w = f.add(v, 1i64);
            f.store(base as i64, i, w);
        });
        f.ret(None);
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();

        // Exact reference.
        let (exact, _, _) = fold_program(&p);

        // Budget so tight the first charged allocation latches pressure.
        let budget = Arc::new(ResourceBudget::new(Some(1), None));
        let cfg = pass2::Pass2 {
            budget: Some(Arc::clone(&budget)),
            ..pass2::Pass2::default()
        };
        let out = pass2::run(&p, &pass2::Source::Live(pass2::Live::default()), &cfg).unwrap();
        assert!(
            out.degradation.budget_overapprox_stmts > 0,
            "folders must degrade"
        );
        let coarse = out.ddg;

        assert!(budget.under_pressure());
        assert!(coarse.overapprox_stmts() > 0);
        assert_eq!(coarse.n_stmts(), exact.n_stmts());
        assert_eq!(coarse.total_ops, exact.total_ops);
        // Same dependence keys, and each coarse domain box contains the
        // exact box (superset soundness).
        assert_eq!(coarse.deps.len(), exact.deps.len());
        for (c, e) in coarse.deps.iter().zip(exact.deps.iter()) {
            assert_eq!(
                (c.kind, c.src, c.dst, c.class),
                (e.kind, e.src, e.dst, e.class)
            );
            assert_eq!(c.domain.count, e.domain.count);
            for k in 0..c.domain.dim {
                assert!(c.domain.box_lo[k] <= e.domain.box_lo[k]);
                assert!(c.domain.box_hi[k] >= e.domain.box_hi[k]);
            }
        }
    }

    /// Coordinates at the `i64` limits (a replayed recording may hold any)
    /// fold without overflow: the distance saturates, every point stays in
    /// its domain.
    #[test]
    fn extreme_dependence_coordinates_fold() {
        let mut sink = FoldingSink::new();
        let (src, dst) = (StmtId(0), StmtId(1));
        sink.dependence(DepKind::Flow, src, &[i64::MAX], dst, &[i64::MIN]);
        sink.dependence(DepKind::Flow, src, &[i64::MIN], dst, &[i64::MAX]);
        let [(_, mut folder)] = <[DepEntry; 1]>::try_from(sink.deps).expect("one relation");
        assert_eq!(folder.distances(), vec![(i64::MIN, i64::MAX)]);
        let domain = folder.finalize().domain;
        assert!(domain.poly.contains(&[i64::MIN]) && domain.poly.contains(&[i64::MAX]));
    }

    #[test]
    fn display_dep_matches_table2_format() {
        let mut pb = ProgramBuilder::new("t");
        let base = pb.alloc(64);
        let mut f = pb.func("main", 0);
        f.for_loop("L", 0i64, 8i64, 1, |f, i| {
            let prev = f.load(base as i64, i);
            let v = f.add(prev, 1i64);
            let i1 = f.add(i, 1i64);
            f.store(base as i64, i1, v);
        });
        f.ret(None);
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let (ddg, _, _) = fold_program(&p);
        let flow = ddg
            .deps
            .iter()
            .find(|d| d.kind == DepKind::Flow && d.domain.count > 1)
            .unwrap();
        let s = display_dep(flow, &["c0", "ck"], &["c0'", "ck'"]);
        assert!(s.contains("ck' = ck - 1"), "{s}");
    }
}
