//! The procedure scope: declared arrays, connect classes and statement
//! execution.

use crate::connect::{ConnectClass, Connection};
use crate::decl::{DeclKind, DynamicDecl, SecondaryDecl, StaticDecl};
use crate::distribute::{DimSpec, DistributeReport, DistributeStmt};
use crate::{CoreError, Result};
use std::collections::HashMap;
use vf_dist::{construct, DistPattern, DistType, Distribution, ProcessorView};
use vf_index::IndexDomain;
use vf_machine::{trace, CommStats, CommTracker, Machine};
use vf_runtime::ghost::{
    exchange_class_ghosts, exchange_class_ghosts_split, GhostRegion, SplitGhostExchange,
};
use vf_runtime::{
    execute_class_redistribute, redistribute, ArrayDescriptor, DistArray, Element, ExecBackend,
    ExecReport, FusedPlan, PlanCache, RedistOptions, RetiredLocals, SplitExecReport,
};

struct Entry<T: Element> {
    kind: DeclKind,
    domain: IndexDomain,
    data: Option<DistArray<T>>,
}

/// The ghost regions of one class halo exchange: `(name, region)` for the
/// primary (first) and each connected secondary, in class order — see
/// [`VfScope::exchange_class_ghosts`].
pub type ClassGhosts<T> = Vec<(String, GhostRegion<T>)>;

/// Double-buffered class halo storage for iterative split-phase sweeps.
///
/// The *front* buffer holds the last **completed** exchange's ghost
/// regions and stays readable while the next exchange is in flight; when
/// that exchange completes ([`ClassHaloExchange::wait_into`]) the fresh
/// regions swap to the front and the previous front retires to the
/// *back* — so a consumer never observes a half-filled halo, and the stale
/// generation remains inspectable (e.g. for convergence deltas) until the
/// following swap drops it.
pub struct ClassHalo<T: Element> {
    front: Option<ClassGhosts<T>>,
    back: Option<ClassGhosts<T>>,
}

impl<T: Element> ClassHalo<T> {
    /// An empty halo store (no exchange completed yet).
    pub fn new() -> Self {
        Self {
            front: None,
            back: None,
        }
    }

    /// The last completed exchange's regions, if any.
    pub fn front(&self) -> Option<&ClassGhosts<T>> {
        self.front.as_ref()
    }

    /// The generation displaced by the most recent swap, if any.
    pub fn back(&self) -> Option<&ClassGhosts<T>> {
        self.back.as_ref()
    }

    /// Publishes a freshly completed exchange: `fresh` becomes the front
    /// buffer and the previous front (if any) moves to the back.
    pub fn publish(&mut self, fresh: ClassGhosts<T>) {
        self.back = self.front.take();
        self.front = Some(fresh);
    }
}

impl<T: Element> Default for ClassHalo<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// A class ghost exchange caught between its post and its wait — returned
/// by [`VfScope::exchange_class_ghosts_split`].
///
/// The modelled messages are already posted and the crossing payloads
/// packed; with the scope running a pooled threaded backend the per-pair
/// unpacks stream on background workers while the caller computes.  The
/// class arrays must not be mutated and no other scope operation that uses
/// the executor may run while the handle is live (the pool's submission
/// turn is held).
///
/// The handle is the runtime's [`SplitGhostExchange`] (to which it
/// derefs: `messages`, `bytes`, `is_streaming`, `with_dest_mut`) plus the
/// finishers that name the regions.
pub struct ClassHaloExchange<'s, T: Element> {
    inner: SplitGhostExchange<'s, T>,
    names: Vec<String>,
}

impl<'s, T: Element> std::ops::Deref for ClassHaloExchange<'s, T> {
    type Target = SplitGhostExchange<'s, T>;

    fn deref(&self) -> &Self::Target {
        &self.inner
    }
}

impl<T: Element> ClassHaloExchange<'_, T> {
    /// Completes the exchange: ghost regions bitwise identical to
    /// [`VfScope::exchange_class_ghosts`], plus the split-phase report
    /// with the *measured* wall-clock overlap.
    ///
    /// # Errors
    /// An unrepairable [`vf_runtime::RuntimeError::CorruptMessage`] —
    /// charges are settled and the corrupt payload is never unpacked.
    pub fn wait(self) -> Result<(ClassGhosts<T>, SplitExecReport)> {
        let (regions, report) = self.inner.wait()?;
        Ok((self.names.into_iter().zip(regions).collect(), report))
    }

    /// Completes the exchange and swaps the fresh regions into `halo`'s
    /// front buffer (the previous front retires to the back) — the
    /// double-buffered form of [`ClassHaloExchange::wait`].
    ///
    /// # Errors
    /// Exactly as [`ClassHaloExchange::wait`]; `halo` is left untouched on
    /// error.
    pub fn wait_into(self, halo: &mut ClassHalo<T>) -> Result<SplitExecReport> {
        let (fresh, report) = self.wait()?;
        halo.publish(fresh);
        Ok(report)
    }
}

/// A Vienna Fortran procedure scope.
///
/// The scope owns the declared arrays (static and dynamic), their connect
/// equivalence classes, and the machine/communication-tracker pair the
/// program runs on.  Statements (`DISTRIBUTE`, `DCASE`, `IDT`) execute
/// against the scope; array data is accessed through
/// [`VfScope::array`] / [`VfScope::array_mut`].
///
/// The connect relation "does not extend across procedure boundaries"
/// (paper §2.3, rule 5): creating a new scope starts with empty classes.
/// All arrays in one scope share the element type `T` (the paper's examples
/// are all `REAL`; use several scopes or the runtime layer directly for
/// mixed-type programs).
pub struct VfScope<T: Element = f64> {
    machine: Machine,
    tracker: CommTracker,
    executor: ExecBackend,
    default_procs: ProcessorView,
    arrays: HashMap<String, Entry<T>>,
    order: Vec<String>,
    classes: HashMap<String, ConnectClass>,
    /// The locals the last class `DISTRIBUTE` retired, which the next one
    /// builds its destinations from; freed by any statement without a
    /// class schedule.
    retired: RetiredLocals<T>,
}

impl<T: Element> VfScope<T> {
    /// Creates a scope executing on `machine`, with the default processor
    /// arrangement `$NP` = `machine.num_procs()` in one dimension.
    pub fn new(machine: Machine) -> Self {
        let default_procs = ProcessorView::linear(machine.num_procs());
        Self::with_processors(machine, default_procs)
    }

    /// Creates a scope with an explicit default processor view (e.g. a 2-D
    /// grid `PROCESSORS R(1:M,1:M)`).
    pub fn with_processors(machine: Machine, default_procs: ProcessorView) -> Self {
        let tracker = machine.tracker();
        Self {
            machine,
            tracker,
            executor: ExecBackend::auto(),
            default_procs,
            arrays: HashMap::new(),
            order: Vec::new(),
            classes: HashMap::new(),
            retired: RetiredLocals::default(),
        }
    }

    /// Selects the backend that moves the data of every statement —
    /// serial, threaded, or sharded over real channels; results are
    /// bit-identical, see [`vf_runtime::exec`].  The scope never asks which
    /// one it holds: the backend is the transport.  The default is
    /// [`ExecBackend::auto`], whose
    /// threaded variant submits to the process-wide **persistent worker
    /// pool**: the scope's executor holds the pool handle for its whole
    /// lifetime, so every `DISTRIBUTE`, class ghost exchange and app step
    /// reuses the same parked workers instead of re-paying thread spawns.
    pub fn set_executor(&mut self, executor: ExecBackend) {
        self.executor = executor;
    }

    /// The execution backend `DISTRIBUTE` statements run their copies on.
    pub fn executor(&self) -> &ExecBackend {
        &self.executor
    }

    /// The persistent worker pool the scope's executor submits to, if the
    /// backend is threaded — the pool lives (at least) as long as the
    /// scope and is shared across all of its statements.
    pub fn worker_pool(&self) -> Option<&std::sync::Arc<vf_machine::WorkerPool>> {
        self.executor.worker_pool()
    }

    /// The machine the scope executes on.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The `$NP` intrinsic: the number of executing processors.
    pub fn num_procs(&self) -> usize {
        self.machine.num_procs()
    }

    /// The scope's communication tracker.
    pub fn tracker(&self) -> &CommTracker {
        &self.tracker
    }

    /// The machine's plan store ([`PlanCache::of`]): `DISTRIBUTE`
    /// statements and halo exchanges plan each pattern once and replay the
    /// cached schedule on later executions — the PARTI schedule reuse of
    /// paper §3.2 applied to the language layer.  Every scope and
    /// application run on this machine (or a clone of it) shares it.
    pub fn plan_cache(&self) -> &PlanCache {
        PlanCache::of(&self.machine)
    }

    /// The default processor view used when declarations and statements do
    /// not name an explicit target.
    pub fn default_procs(&self) -> &ProcessorView {
        &self.default_procs
    }

    /// A snapshot of the communication statistics accumulated so far.
    pub fn stats(&self) -> CommStats {
        self.tracker.snapshot()
    }

    /// Returns and resets the accumulated communication statistics —
    /// convenient for per-phase accounting in the experiments.
    pub fn take_stats(&self) -> CommStats {
        self.tracker.take()
    }

    /// The runtime profile report: per-phase span counts, measured seconds
    /// and latency percentiles from the global [`trace`] registry, plus a
    /// drift section comparing the measured seconds against the modelled
    /// (credited) seconds in this scope's [`CommStats`].  `Display` renders
    /// the human-readable table; [`trace::MetricsReport::to_json`] the
    /// machine-readable artifact.  Empty when `VF_TRACE` is off.
    pub fn profile(&self) -> trace::MetricsReport {
        self.machine.metrics_report(&self.stats())
    }

    /// Names of all declared arrays, in declaration order.
    pub fn declared_names(&self) -> &[String] {
        &self.order
    }

    fn insert_entry(&mut self, name: &str, entry: Entry<T>) -> Result<()> {
        if self.arrays.contains_key(name) {
            return Err(CoreError::DuplicateDeclaration { name: name.into() });
        }
        self.arrays.insert(name.to_string(), entry);
        self.order.push(name.to_string());
        Ok(())
    }

    /// Declares a statically distributed array and allocates it
    /// immediately.
    pub fn declare_static(&mut self, decl: StaticDecl) -> Result<()> {
        let procs = decl
            .target
            .clone()
            .unwrap_or_else(|| self.default_procs.clone());
        let dist = Distribution::new(decl.dist_type.clone(), decl.domain.clone(), procs)?;
        let data = DistArray::new(decl.name.clone(), dist);
        self.insert_entry(
            &decl.name,
            Entry {
                kind: DeclKind::Static {
                    dist_type: decl.dist_type,
                    target: decl.target,
                },
                domain: decl.domain,
                data: Some(data),
            },
        )
    }

    /// Declares a dynamically distributed primary array.  If the
    /// declaration carries an initial distribution the array is allocated
    /// and distributed immediately; otherwise it may not be accessed until
    /// a `DISTRIBUTE` statement executes (paper §2.3).
    pub fn declare_dynamic(&mut self, decl: DynamicDecl) -> Result<()> {
        let data = if let Some(initial) = &decl.initial {
            if !decl.range.is_empty() && !decl.range.iter().any(|p| p.matches(initial)) {
                return Err(CoreError::OutsideRange {
                    name: decl.name.clone(),
                    dist_type: initial.to_string(),
                });
            }
            let procs = decl
                .target
                .clone()
                .unwrap_or_else(|| self.default_procs.clone());
            let dist = Distribution::new(initial.clone(), decl.domain.clone(), procs)?;
            Some(DistArray::new(decl.name.clone(), dist))
        } else {
            None
        };
        self.classes.insert(decl.name.clone(), ConnectClass::new());
        self.insert_entry(
            &decl.name,
            Entry {
                kind: DeclKind::DynamicPrimary {
                    range: decl.range,
                    initial: decl.initial,
                    target: decl.target,
                },
                domain: decl.domain,
                data,
            },
        )
    }

    /// Declares a dynamic secondary array connected to an existing primary.
    /// If the primary is currently distributed, the secondary is allocated
    /// with the derived distribution right away.
    pub fn declare_secondary(&mut self, decl: SecondaryDecl) -> Result<()> {
        let primary_entry =
            self.arrays
                .get(&decl.primary)
                .ok_or_else(|| CoreError::UnknownArray {
                    name: decl.primary.clone(),
                })?;
        if !matches!(primary_entry.kind, DeclKind::DynamicPrimary { .. }) {
            return Err(CoreError::InvalidConnection {
                secondary: decl.name.clone(),
                primary: decl.primary.clone(),
                reason: "the named array is not a dynamic primary array".into(),
            });
        }
        let data = match &primary_entry.data {
            Some(primary_data) => Some(DistArray::new(
                decl.name.clone(),
                Self::derive_secondary_dist(&decl.connection, primary_data.dist(), &decl.domain)?,
            )),
            None => None,
        };
        self.classes
            .get_mut(&decl.primary)
            .expect("class created with the primary")
            .add_secondary(decl.name.clone(), decl.connection.clone());
        self.insert_entry(
            &decl.name,
            Entry {
                kind: DeclKind::DynamicSecondary {
                    primary: decl.primary,
                    connection: decl.connection,
                },
                domain: decl.domain,
                data,
            },
        )
    }

    fn derive_secondary_dist(
        connection: &Connection,
        primary_dist: &Distribution,
        secondary_domain: &IndexDomain,
    ) -> Result<Distribution> {
        match connection {
            Connection::Extraction => Ok(Distribution::new(
                primary_dist.dist_type().clone(),
                secondary_domain.clone(),
                primary_dist.procs().clone(),
            )?),
            Connection::Alignment(a) => Ok(construct(a, primary_dist, secondary_domain)?),
        }
    }

    /// Exchanges the overlap (ghost) areas of a dynamic primary array and
    /// **every array of its connect class** as one fused ghost exchange:
    /// the class pays a single message per communicating processor pair —
    /// the payloads of all member arrays are **packed into one contiguous
    /// wire buffer** per pair, laid out by
    /// [`vf_runtime::FusedPlan::wire_slices`], and unpacked into each
    /// member's own ghost-buffer slots at the destination — instead of one
    /// message per array per pair.  Halo geometry is planned once per
    /// (distribution fingerprint, widths) pair through the scope's
    /// [`PlanCache`]; the pack/unpack streams run on the scope's
    /// [`ExecBackend`] (the pooled threaded backend parallelises them over
    /// destination processors).
    ///
    /// Returns `(name, ghosts)` for the primary (first) and each connected
    /// secondary in class order, plus what the fused exchange charged.
    /// Byte and element totals equal the sum over per-array exchanges
    /// exactly.
    ///
    /// # Errors
    /// [`CoreError::UnknownArray`] / [`CoreError::NotAPrimaryArray`] if
    /// `primary` is not a dynamic primary;
    /// [`CoreError::NotYetDistributed`] if any class member has no current
    /// distribution; planner errors (e.g.
    /// [`vf_runtime::RuntimeError::NonContiguousLayout`]) pass through.
    pub fn exchange_class_ghosts(
        &self,
        primary: &str,
        widths: &[(usize, usize)],
    ) -> Result<(ClassGhosts<T>, ExecReport)> {
        let _span = trace::OpenSpan::begin_with(trace::Phase::Statement, || {
            format!("exchange-ghosts {primary}")
        });
        let (names, members) = self.class_members(primary)?;
        let fused = self.class_halo_plan(&members, widths)?;
        let (regions, exec) =
            exchange_class_ghosts(&members, &fused, &self.tracker, &self.executor)?;
        Ok((names.into_iter().zip(regions).collect(), exec))
    }

    /// The members of `primary`'s connect class: the primary first, then
    /// each secondary in class order — names and current data.
    fn class_members(&self, primary: &str) -> Result<(Vec<String>, Vec<&DistArray<T>>)> {
        if !matches!(
            self.arrays
                .get(primary)
                .ok_or_else(|| CoreError::UnknownArray {
                    name: primary.into(),
                })?
                .kind,
            DeclKind::DynamicPrimary { .. }
        ) {
            return Err(CoreError::NotAPrimaryArray {
                name: primary.into(),
            });
        }
        let mut names: Vec<String> = vec![primary.to_string()];
        let class = self.classes.get(primary).cloned().unwrap_or_default();
        names.extend(class.secondaries().map(|(name, _)| name.to_string()));
        let members = names
            .iter()
            .map(|name| self.array(name))
            .collect::<Result<Vec<_>>>()?;
        Ok((names, members))
    }

    /// The class's fused halo plan for `widths`, each member's part through
    /// the scope's plan cache — what both forms of the class ghost exchange
    /// execute.
    fn class_halo_plan(
        &self,
        members: &[&DistArray<T>],
        widths: &[(usize, usize)],
    ) -> Result<FusedPlan> {
        let dists = members.iter().map(|a| a.dist());
        Ok(self.plan_cache().ghost_class_plan(dists, widths)?)
    }

    /// Split-phase variant of [`VfScope::exchange_class_ghosts`]: packs the
    /// class halo, posts the messages and **returns immediately** with an
    /// in-flight [`ClassHaloExchange`], so the caller can run interior
    /// compute (points whose stencil needs no ghost value) while the halo
    /// streams in on the executor's background workers, then `wait()` for
    /// regions bitwise identical to the blocking exchange.
    ///
    /// # Errors
    /// Exactly as [`VfScope::exchange_class_ghosts`] — everything is
    /// validated before any message is posted.
    pub fn exchange_class_ghosts_split(
        &self,
        primary: &str,
        widths: &[(usize, usize)],
    ) -> Result<ClassHaloExchange<'_, T>> {
        let _span = trace::OpenSpan::begin_with(trace::Phase::Statement, || {
            format!("exchange-ghosts-split {primary}")
        });
        let (names, members) = self.class_members(primary)?;
        let fused = self.class_halo_plan(&members, widths)?;
        let inner = exchange_class_ghosts_split(&members, fused, &self.tracker, &self.executor)?;
        Ok(ClassHaloExchange { inner, names })
    }

    /// The connect equivalence class of a primary array.
    pub fn connect_class(&self, primary: &str) -> Result<&ConnectClass> {
        self.classes
            .get(primary)
            .ok_or_else(|| CoreError::UnknownArray {
                name: primary.into(),
            })
    }

    /// Whether `name` is declared and currently associated with a
    /// distribution.
    pub fn is_distributed(&self, name: &str) -> bool {
        self.arrays
            .get(name)
            .map(|e| e.data.is_some())
            .unwrap_or(false)
    }

    /// Read access to an array's data.
    pub fn array(&self, name: &str) -> Result<&DistArray<T>> {
        let entry = self
            .arrays
            .get(name)
            .ok_or_else(|| CoreError::UnknownArray { name: name.into() })?;
        entry
            .data
            .as_ref()
            .ok_or_else(|| CoreError::NotYetDistributed { name: name.into() })
    }

    /// Mutable access to an array's data.
    pub fn array_mut(&mut self, name: &str) -> Result<&mut DistArray<T>> {
        let entry = self
            .arrays
            .get_mut(name)
            .ok_or_else(|| CoreError::UnknownArray { name: name.into() })?;
        entry
            .data
            .as_mut()
            .ok_or_else(|| CoreError::NotYetDistributed { name: name.into() })
    }

    /// The distribution type currently associated with `name`.
    pub fn current_dist_type(&self, name: &str) -> Result<DistType> {
        Ok(self.array(name)?.dist().dist_type().clone())
    }

    /// The run-time descriptor (paper §3.2.1) of an array.
    pub fn descriptor(&self, name: &str) -> Result<ArrayDescriptor> {
        Ok(ArrayDescriptor::of(self.array(name)?))
    }

    /// The `IDT` intrinsic restricted to distribution types: whether the
    /// current distribution type of `name` matches `pattern`.
    pub fn idt(&self, name: &str, pattern: &DistPattern) -> Result<bool> {
        Ok(pattern.matches(&self.current_dist_type(name)?))
    }

    /// Resolves a distribution expression against the current scope state
    /// (evaluating distribution extraction entries).
    fn resolve_expr(&self, stmt: &DistributeStmt) -> Result<(DistType, Option<ProcessorView>)> {
        let mut dims = Vec::with_capacity(stmt.expr.dims.len());
        for spec in &stmt.expr.dims {
            match spec {
                DimSpec::Dist(d) => dims.push(d.clone()),
                DimSpec::ExtractFrom { array, dim } => {
                    let t = self.current_dist_type(array)?;
                    if *dim >= t.rank() {
                        return Err(CoreError::Dist(vf_dist::DistError::RankMismatch {
                            array_rank: t.rank(),
                            dist_rank: dim + 1,
                        }));
                    }
                    dims.push(t.dim(*dim).clone());
                }
            }
        }
        Ok((DistType::new(dims), stmt.expr.target.clone()))
    }

    /// Executes a `DISTRIBUTE` statement (paper §2.4 / §3.2.2): validates
    /// the statement, redistributes every named primary array, and
    /// propagates the redistribution to every secondary array of the
    /// affected connect classes, honouring `NOTRANSFER`.
    ///
    /// When the statement moves two or more arrays with data — a connect
    /// class, a multi-array statement, or both — their per-array
    /// communication plans are **fused**: the whole statement charges a
    /// single message per (sender, receiver) processor pair instead of one
    /// per array per pair, with identical element and byte totals (the
    /// per-array split is still reported, see
    /// [`DistributeReport::fused`]).  The copies run on the scope's
    /// [`ExecBackend`].  A fused statement builds its destination buffers
    /// from the locals the scope's previous one retired, which the scope
    /// holds until its next `DISTRIBUTE` ([`RetiredLocals`]).
    pub fn distribute(&mut self, stmt: DistributeStmt) -> Result<DistributeReport> {
        let _span = trace::OpenSpan::begin_with(trace::Phase::Statement, || {
            format!("distribute {}", stmt.arrays.join(","))
        });
        let (dist_type, explicit_target) = self.resolve_expr(&stmt)?;

        // Validate NOTRANSFER: every name must be a secondary array in one
        // of the affected classes.
        for nt in &stmt.notransfer {
            let ok = stmt.arrays.iter().any(|primary| {
                self.classes
                    .get(primary)
                    .map(|c| c.contains(nt))
                    .unwrap_or(false)
            });
            if !ok {
                return Err(CoreError::InvalidNoTransfer {
                    name: nt.clone(),
                    primary: stmt.arrays.join(","),
                });
            }
        }

        // Phase 1: validate every primary and evaluate the new
        // distribution of every affected array (paper §3.2.2, steps 1 and
        // 2) before any data moves.
        let mut works: Vec<DistributeWork> = Vec::new();
        for primary in &stmt.arrays {
            self.plan_class_works(
                primary,
                &dist_type,
                explicit_target.as_ref(),
                &stmt,
                &mut works,
            )?;
        }

        // Phase 2: execute.  The members a class schedule would carry are
        // those with data to move: allocated, not NOTRANSFER, and not
        // already distributed as the statement asks.  Two or more of them
        // travel as one fused schedule; everything else — first-time
        // allocations aside — is the array verb, which settles NOTRANSFER
        // and no-op members without data motion.
        let mut reports: Vec<Option<vf_runtime::RedistReport>> = vec![None; works.len()];
        let mut moving: Vec<usize> = (0..works.len())
            .filter(|&idx| {
                let work = &works[idx];
                let data = self.arrays[&work.name].data.as_ref();
                !work.notransfer && data.is_some_and(|d| d.dist() != &work.new_dist)
            })
            .collect();
        if moving.len() < 2 {
            moving.clear();
            // Spares serve a class schedule only: free them before the
            // array verbs allocate.
            self.retired = RetiredLocals::default();
        }
        for (idx, work) in works.iter().enumerate() {
            if moving.contains(&idx) {
                continue;
            }
            let entry = self.arrays.get_mut(&work.name).expect("validated above");
            let report = match entry.data.as_mut() {
                None => {
                    // First distribution: allocate, nothing moves.
                    entry.data = Some(DistArray::new(work.name.clone(), work.new_dist.clone()));
                    Default::default()
                }
                Some(data) => {
                    let opts = RedistOptions {
                        notransfer: work.notransfer,
                    };
                    redistribute(
                        data,
                        work.new_dist.clone(),
                        &self.tracker,
                        &opts,
                        PlanCache::of(&self.machine),
                        &self.executor,
                    )?
                }
            };
            reports[idx] = Some(report);
        }

        let fused_charge = if moving.is_empty() {
            None
        } else {
            // Plan every array against the shared cache, then fuse.
            let mut parts = Vec::with_capacity(moving.len());
            for &idx in &moving {
                let work = &works[idx];
                let entry = self.arrays.get(&work.name).expect("validated above");
                let data = entry.data.as_ref().expect("phase 2 saw data");
                parts.push(
                    PlanCache::of(&self.machine).redistribute_plan(data.dist(), &work.new_dist)?,
                );
            }
            let fused = FusedPlan::fuse(parts)?;
            // Take the arrays out for the duration of the fused
            // execution (it needs simultaneous mutable access).
            let mut datas: Vec<DistArray<T>> = moving
                .iter()
                .map(|&idx| {
                    self.arrays
                        .get_mut(&works[idx].name)
                        .expect("validated above")
                        .data
                        .take()
                        .expect("phase 2 saw data")
                })
                .collect();
            // The class moves as one packed message per processor
            // pair, on whatever transport the scope's backend is.
            let result = {
                let mut refs: Vec<&mut DistArray<T>> = datas.iter_mut().collect();
                execute_class_redistribute(
                    &mut refs,
                    &fused,
                    &self.tracker,
                    &self.executor,
                    &mut self.retired,
                )
            };
            // Put the arrays back whether or not execution succeeded
            // (a failed fused execute validates before moving, so the
            // data is unchanged).
            for (&idx, data) in moving.iter().zip(datas) {
                self.arrays
                    .get_mut(&works[idx].name)
                    .expect("validated above")
                    .data = Some(data);
            }
            let (part_reports, exec) = result?;
            for (&idx, part_report) in moving.iter().zip(part_reports) {
                reports[idx] = Some(part_report);
            }
            Some(exec)
        };

        Ok(DistributeReport {
            per_array: works
                .into_iter()
                .zip(reports)
                .map(|(work, report)| (work.name, report.expect("every work executed")))
                .collect(),
            fused: fused_charge,
        })
    }

    /// Validates `primary` and appends one [`DistributeWork`] for it plus
    /// one per connected secondary (honouring `NOTRANSFER`), skipping
    /// arrays already scheduled by an earlier primary of the same
    /// statement.
    fn plan_class_works(
        &self,
        primary: &str,
        dist_type: &DistType,
        explicit_target: Option<&ProcessorView>,
        stmt: &DistributeStmt,
        works: &mut Vec<DistributeWork>,
    ) -> Result<()> {
        // Validate the primary.
        let entry = self
            .arrays
            .get(primary)
            .ok_or_else(|| CoreError::UnknownArray {
                name: primary.into(),
            })?;
        let (range, decl_target) = match &entry.kind {
            DeclKind::DynamicPrimary { range, target, .. } => (range.clone(), target.clone()),
            _ => {
                return Err(CoreError::NotAPrimaryArray {
                    name: primary.into(),
                })
            }
        };
        if !range.is_empty() && !range.iter().any(|p| p.matches(dist_type)) {
            return Err(CoreError::OutsideRange {
                name: primary.into(),
                dist_type: dist_type.to_string(),
            });
        }

        // Step 1 (paper §3.2.2): evaluate the new distribution of the
        // primary.
        let procs = explicit_target
            .cloned()
            .or(decl_target)
            .unwrap_or_else(|| self.default_procs.clone());
        let new_dist = Distribution::new(dist_type.clone(), entry.domain.clone(), procs)?;
        if !works.iter().any(|w| w.name == primary) {
            works.push(DistributeWork {
                name: primary.to_string(),
                new_dist: new_dist.clone(),
                notransfer: false,
            });
        }

        // Step 2 for every connected secondary array: derive its
        // distribution from the primary's new one.
        let class = self.classes.get(primary).cloned().unwrap_or_default();
        for (secondary, connection) in class.secondaries() {
            if works.iter().any(|w| w.name == secondary) {
                continue;
            }
            let sec_domain = self
                .arrays
                .get(secondary)
                .expect("secondary declared before being added to the class")
                .domain
                .clone();
            let sec_dist = Self::derive_secondary_dist(connection, &new_dist, &sec_domain)?;
            works.push(DistributeWork {
                name: secondary.to_string(),
                new_dist: sec_dist,
                notransfer: stmt.notransfer.iter().any(|n| n == secondary),
            });
        }
        Ok(())
    }
}

/// One array affected by a `DISTRIBUTE` statement: the evaluated target
/// distribution and whether the data motion is suppressed.
struct DistributeWork {
    name: String,
    new_dist: Distribution,
    notransfer: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use vf_dist::{Alignment, DimDist, DimPattern, ProcId};
    use vf_index::Point;
    use vf_machine::CostModel;

    fn scope(p: usize) -> VfScope<f64> {
        VfScope::new(Machine::new(p, CostModel::zero()))
    }

    #[test]
    fn static_arrays_are_allocated_immediately() {
        let mut s = scope(4);
        s.declare_static(StaticDecl::new(
            "U",
            IndexDomain::d2(8, 8),
            DistType::columns(),
        ))
        .unwrap();
        assert!(s.is_distributed("U"));
        assert_eq!(s.current_dist_type("U").unwrap(), DistType::columns());
        assert_eq!(s.array("U").unwrap().domain().size(), 64);
        assert_eq!(s.num_procs(), 4);
        // Re-declaration is rejected.
        assert!(matches!(
            s.declare_static(StaticDecl::new(
                "U",
                IndexDomain::d1(4),
                DistType::block1d()
            )),
            Err(CoreError::DuplicateDeclaration { .. })
        ));
    }

    #[test]
    fn example2_declarations() {
        // The paper's Example 2, executed.
        let mut s = scope(4);
        s.declare_dynamic(DynamicDecl::new("B1", IndexDomain::d1(8)))
            .unwrap();
        s.declare_dynamic(DynamicDecl::new("B2", IndexDomain::d1(12)).initial(DistType::block1d()))
            .unwrap();
        s.declare_dynamic(
            DynamicDecl::new("B3", IndexDomain::d2(8, 8))
                .range([
                    DistPattern::dims(vec![DimPattern::Block, DimPattern::Block]),
                    DistPattern::dims(vec![DimPattern::Star, DimPattern::Cyclic(1)]),
                ])
                .initial(DistType::new(vec![DimDist::Block, DimDist::Cyclic(1)])),
        )
        .unwrap();
        s.declare_dynamic(
            DynamicDecl::new("B4", IndexDomain::d2(8, 8))
                .initial(DistType::new(vec![DimDist::Block, DimDist::Cyclic(1)])),
        )
        .unwrap();
        s.declare_secondary(SecondaryDecl::extraction("A1", IndexDomain::d2(8, 8), "B4"))
            .unwrap();
        s.declare_secondary(SecondaryDecl::aligned(
            "A2",
            IndexDomain::d2(8, 8),
            "B4",
            Alignment::identity(2),
        ))
        .unwrap();

        // B1 has no initial distribution: access is illegal until DISTRIBUTE.
        assert!(matches!(
            s.array("B1"),
            Err(CoreError::NotYetDistributed { .. })
        ));
        assert!(s.is_distributed("B2"));
        // The connections put A1 and A2 into C(B4).
        let class = s.connect_class("B4").unwrap();
        assert!(class.contains("A1") && class.contains("A2"));
        // Secondaries follow B4's distribution type immediately.
        assert_eq!(
            s.current_dist_type("A1").unwrap(),
            s.current_dist_type("B4").unwrap()
        );
    }

    #[test]
    fn example3_distribute_statements() {
        // The paper's Example 3, executed in order.
        let mut s = scope(4);
        s.declare_dynamic(DynamicDecl::new("B1", IndexDomain::d1(16)))
            .unwrap();
        s.declare_dynamic(DynamicDecl::new("B2", IndexDomain::d1(16)).initial(DistType::block1d()))
            .unwrap();
        s.declare_dynamic(
            DynamicDecl::new("B3", IndexDomain::d2(8, 8))
                .initial(DistType::new(vec![DimDist::Block, DimDist::Cyclic(1)])),
        )
        .unwrap();
        s.declare_dynamic(
            DynamicDecl::new("B4", IndexDomain::d2(8, 8))
                .initial(DistType::new(vec![DimDist::Block, DimDist::Cyclic(1)])),
        )
        .unwrap();
        s.declare_secondary(SecondaryDecl::extraction("A1", IndexDomain::d2(8, 8), "B4"))
            .unwrap();

        // DISTRIBUTE B1 :: (BLOCK)
        s.distribute(DistributeStmt::new("B1", DistType::block1d()))
            .unwrap();
        assert_eq!(s.current_dist_type("B1").unwrap(), DistType::block1d());

        // K = 2; DISTRIBUTE B1, B2 :: (CYCLIC(K))
        let k = 2;
        s.distribute(DistributeStmt::multi(["B1", "B2"], DistType::cyclic1d(k)))
            .unwrap();
        assert_eq!(s.current_dist_type("B1").unwrap(), DistType::cyclic1d(2));
        assert_eq!(s.current_dist_type("B2").unwrap(), DistType::cyclic1d(2));

        // DISTRIBUTE B3 :: (BLOCK, CYCLIC)
        s.distribute(DistributeStmt::new(
            "B3",
            DistType::new(vec![DimDist::Block, DimDist::Cyclic(1)]),
        ))
        .unwrap();

        // DISTRIBUTE B4 :: (=B1, CYCLIC(3)) — extraction of B1's (CYCLIC(2)).
        let expr = crate::DistExpr::new(vec![
            DimSpec::ExtractFrom {
                array: "B1".into(),
                dim: 0,
            },
            DimDist::Cyclic(3).into(),
        ]);
        let report = s.distribute(DistributeStmt::with_expr("B4", expr)).unwrap();
        let expected = DistType::new(vec![DimDist::Cyclic(2), DimDist::Cyclic(3)]);
        assert_eq!(s.current_dist_type("B4").unwrap(), expected);
        // The secondary A1 followed along.
        assert_eq!(s.current_dist_type("A1").unwrap(), expected);
        assert_eq!(report.per_array.len(), 2);
    }

    #[test]
    fn range_attribute_is_enforced() {
        let mut s = scope(4);
        s.declare_dynamic(
            DynamicDecl::new("B3", IndexDomain::d2(8, 8))
                .range([DistPattern::dims(vec![
                    DimPattern::Block,
                    DimPattern::Block,
                ])])
                .initial(DistType::blocks2d()),
        )
        .unwrap();
        let err = s.distribute(DistributeStmt::new(
            "B3",
            DistType::new(vec![DimDist::Cyclic(1), DimDist::Cyclic(1)]),
        ));
        assert!(matches!(err, Err(CoreError::OutsideRange { .. })));
        // An initial distribution outside the declared range is rejected too.
        let err = s.declare_dynamic(
            DynamicDecl::new("B5", IndexDomain::d1(8))
                .range([DistPattern::exact(&DistType::block1d())])
                .initial(DistType::cyclic1d(1)),
        );
        assert!(matches!(err, Err(CoreError::OutsideRange { .. })));
    }

    #[test]
    fn distribute_rejects_non_primaries_and_bad_notransfer() {
        let mut s = scope(2);
        s.declare_static(StaticDecl::new(
            "U",
            IndexDomain::d1(8),
            DistType::block1d(),
        ))
        .unwrap();
        s.declare_dynamic(DynamicDecl::new("B", IndexDomain::d1(8)).initial(DistType::block1d()))
            .unwrap();
        s.declare_secondary(SecondaryDecl::extraction("A", IndexDomain::d1(8), "B"))
            .unwrap();
        assert!(matches!(
            s.distribute(DistributeStmt::new("U", DistType::cyclic1d(1))),
            Err(CoreError::NotAPrimaryArray { .. })
        ));
        assert!(matches!(
            s.distribute(DistributeStmt::new("A", DistType::cyclic1d(1))),
            Err(CoreError::NotAPrimaryArray { .. })
        ));
        assert!(matches!(
            s.distribute(DistributeStmt::new("B", DistType::cyclic1d(1)).notransfer(["U"])),
            Err(CoreError::InvalidNoTransfer { .. })
        ));
        assert!(matches!(
            s.distribute(DistributeStmt::new("ZZZ", DistType::cyclic1d(1))),
            Err(CoreError::UnknownArray { .. })
        ));
    }

    #[test]
    fn redistribution_preserves_data_and_propagates_to_secondaries() {
        let mut s = scope(4);
        s.declare_dynamic(DynamicDecl::new("B", IndexDomain::d1(16)).initial(DistType::block1d()))
            .unwrap();
        s.declare_secondary(SecondaryDecl::extraction("A", IndexDomain::d1(16), "B"))
            .unwrap();
        // Fill both arrays.
        for i in 1..=16i64 {
            s.array_mut("B")
                .unwrap()
                .set(&Point::d1(i), i as f64)
                .unwrap();
            s.array_mut("A")
                .unwrap()
                .set(&Point::d1(i), -(i as f64))
                .unwrap();
        }
        let report = s
            .distribute(DistributeStmt::new("B", DistType::cyclic1d(1)))
            .unwrap();
        assert_eq!(report.per_array.len(), 2);
        assert!(report.moved_elements() > 0);
        for i in 1..=16i64 {
            assert_eq!(s.array("B").unwrap().get(&Point::d1(i)).unwrap(), i as f64);
            assert_eq!(
                s.array("A").unwrap().get(&Point::d1(i)).unwrap(),
                -(i as f64)
            );
        }
        // The scope's tracker saw the traffic.
        assert!(s.stats().total_messages() > 0);
        let taken = s.take_stats();
        assert_eq!(taken.total_messages(), report.messages());
        assert_eq!(s.stats().total_messages(), 0);
    }

    #[test]
    fn connect_class_distribute_fuses_to_one_message_per_pair() {
        let p = 4usize;
        let mut s = scope(p);
        s.declare_dynamic(DynamicDecl::new("B", IndexDomain::d1(32)).initial(DistType::block1d()))
            .unwrap();
        s.declare_secondary(SecondaryDecl::extraction("A1", IndexDomain::d1(32), "B"))
            .unwrap();
        s.declare_secondary(SecondaryDecl::extraction("A2", IndexDomain::d1(32), "B"))
            .unwrap();
        for i in 1..=32i64 {
            for name in ["B", "A1", "A2"] {
                s.array_mut(name)
                    .unwrap()
                    .set(&Point::d1(i), i as f64)
                    .unwrap();
            }
        }
        s.take_stats();
        let report = s
            .distribute(DistributeStmt::new("B", DistType::cyclic1d(1)))
            .unwrap();
        // Three arrays moved as one fused schedule: at most one message
        // per processor pair for the whole class, strictly fewer than the
        // one-message-per-array-per-pair of unfused execution.
        assert!(report.fused.is_some());
        assert!(report.messages() <= p * (p - 1));
        assert!(report.messages() < report.unfused_messages());
        assert_eq!(report.unfused_messages(), 3 * report.messages());
        // The tracker saw exactly the fused totals, and the bytes are the
        // full three-array volume.
        let stats = s.take_stats();
        assert_eq!(stats.total_messages(), report.messages());
        assert_eq!(stats.total_bytes(), report.bytes());
        assert_eq!(
            report.bytes(),
            report.per_array.iter().map(|(_, r)| r.bytes).sum::<usize>()
        );
        // Data survived for every member.
        for name in ["B", "A1", "A2"] {
            for i in 1..=32i64 {
                assert_eq!(s.array(name).unwrap().get(&Point::d1(i)).unwrap(), i as f64);
            }
        }
        // Serial and threaded backends agree bit-for-bit at the language
        // level too.
        let mut s2 = scope(p);
        s2.set_executor(vf_runtime::ExecBackend::Threaded(
            vf_runtime::ThreadedExecutor::with_pool(std::sync::Arc::new(
                vf_machine::WorkerPool::new(3),
            ))
            .with_serial_cutoff(0),
        ));
        assert_eq!(vf_runtime::PlanExecutor::name(s2.executor()), "threaded");
        s2.declare_dynamic(DynamicDecl::new("B", IndexDomain::d1(32)).initial(DistType::block1d()))
            .unwrap();
        s2.declare_secondary(SecondaryDecl::extraction("A1", IndexDomain::d1(32), "B"))
            .unwrap();
        s2.declare_secondary(SecondaryDecl::extraction("A2", IndexDomain::d1(32), "B"))
            .unwrap();
        for i in 1..=32i64 {
            for name in ["B", "A1", "A2"] {
                s2.array_mut(name)
                    .unwrap()
                    .set(&Point::d1(i), i as f64)
                    .unwrap();
            }
        }
        s2.take_stats();
        let report2 = s2
            .distribute(DistributeStmt::new("B", DistType::cyclic1d(1)))
            .unwrap();
        assert_eq!(report2, report);
        for name in ["B", "A1", "A2"] {
            assert_eq!(
                s2.array(name).unwrap().to_dense(),
                s.array(name).unwrap().to_dense()
            );
        }
    }

    #[test]
    fn sharded_backend_matches_serial_at_the_language_level() {
        let p = 4usize;
        let n = 32usize;
        // Run the same program — declare a class, seed data, DISTRIBUTE
        // the class, exchange its halo — once per backend.
        let run = |backend: Option<vf_runtime::ShardedExecutor>| {
            let mut s = scope(p);
            match backend {
                Some(sharded) => {
                    s.set_executor(ExecBackend::Sharded(sharded));
                    assert_eq!(vf_runtime::PlanExecutor::name(s.executor()), "sharded");
                }
                // Pin the baseline: `auto()` may itself resolve to the
                // sharded backend under VF_EXEC_BACKEND=sharded.
                None => s.set_executor(ExecBackend::Serial),
            }
            s.declare_dynamic(
                DynamicDecl::new("B", IndexDomain::d1(n)).initial(DistType::block1d()),
            )
            .unwrap();
            s.declare_secondary(SecondaryDecl::extraction("A1", IndexDomain::d1(n), "B"))
                .unwrap();
            for i in 1..=n as i64 {
                for name in ["B", "A1"] {
                    s.array_mut(name)
                        .unwrap()
                        .set(&Point::d1(i), (i * i) as f64)
                        .unwrap();
                }
            }
            s.take_stats();
            // Fused multi-array DISTRIBUTE, then a single-array one, then a
            // fused class halo exchange — all three channel-backed paths.
            let d1 = s
                .distribute(DistributeStmt::new("B", DistType::cyclic1d(1)))
                .unwrap();
            let d2 = s
                .distribute(DistributeStmt::new("B", DistType::block1d()).notransfer(["A1"]))
                .unwrap();
            let (regions, exec) = s.exchange_class_ghosts("B", &[(1, 1)]).unwrap();
            let ghost_values: Vec<Option<f64>> = (0..p)
                .flat_map(|q| {
                    (1..=n as i64)
                        .map(move |i| (q, i))
                        .collect::<Vec<_>>()
                        .into_iter()
                })
                .map(|(q, i)| regions[0].1.get(vf_dist::ProcId(q), &Point::d1(i)))
                .collect();
            let stats = s.take_stats();
            let dense: Vec<Vec<f64>> = ["B", "A1"]
                .iter()
                .map(|name| s.array(name).unwrap().to_dense())
                .collect();
            (d1, d2, exec, ghost_values, stats, dense)
        };

        let serial = run(None);
        let sharded = run(Some(vf_runtime::ShardedExecutor::new()));

        // Language-level results are bitwise identical.
        assert_eq!(sharded.0, serial.0, "fused DISTRIBUTE reports differ");
        assert_eq!(sharded.1, serial.1, "NOTRANSFER DISTRIBUTE reports differ");
        assert_eq!(sharded.2, serial.2, "ghost exchange reports differ");
        assert_eq!(sharded.3, serial.3, "ghost values differ");
        assert_eq!(sharded.5, serial.5, "gathered array data differs");
        // Modelled charges identical; the sharded run additionally pushed
        // every wire message over a real channel.
        assert_eq!(sharded.4.total_messages(), serial.4.total_messages());
        assert_eq!(sharded.4.total_bytes(), serial.4.total_bytes());
        assert_eq!(serial.4.channel_messages(), 0);
        assert_eq!(
            sharded.4.channel_messages(),
            sharded.4.total_messages(),
            "every modelled wire message crosses a channel"
        );
        assert_eq!(sharded.4.channel_bytes(), sharded.4.total_bytes());
    }

    #[test]
    fn class_ghost_exchange_fuses_to_one_message_per_pair() {
        let p = 4usize;
        let n = 8usize;
        let mut s = scope(p);
        s.declare_dynamic(
            DynamicDecl::new("U", IndexDomain::d2(n, n)).initial(DistType::columns()),
        )
        .unwrap();
        s.declare_secondary(SecondaryDecl::extraction("V", IndexDomain::d2(n, n), "U"))
            .unwrap();
        s.declare_secondary(SecondaryDecl::extraction("W", IndexDomain::d2(n, n), "U"))
            .unwrap();
        for name in ["U", "V", "W"] {
            for point in IndexDomain::d2(n, n).iter() {
                let v = (point.coord(0) * 100 + point.coord(1)) as f64;
                s.array_mut(name).unwrap().set(&point, v).unwrap();
            }
        }
        s.take_stats();
        let widths = [(1, 1), (1, 1)];
        let (regions, exec) = s.exchange_class_ghosts("U", &widths).unwrap();
        assert_eq!(regions.len(), 3);
        assert_eq!(regions[0].0, "U");
        // One message per communicating pair for the whole class: the
        // column layout has 2(p-1) face pairs, regardless of class size.
        assert_eq!(exec.messages, 2 * (p - 1));
        let stats = s.take_stats();
        assert_eq!(stats.total_messages(), exec.messages);
        assert_eq!(stats.total_bytes(), exec.bytes);
        // Every member's ghost values are the per-array exchange bitwise.
        for (name, region) in &regions {
            let array = s.array(name).unwrap();
            let t_single = s.machine().tracker();
            let plan = s.plan_cache().ghost_plan(array.dist(), &widths).unwrap();
            let (single, single_report) = vf_runtime::ghost::exchange_ghosts(
                array,
                &plan,
                &t_single,
                &vf_runtime::SerialExecutor,
            )
            .unwrap();
            assert_eq!(exec.bytes, 3 * single_report.bytes);
            for proc in array.dist().proc_ids() {
                for point in array.domain().iter() {
                    assert_eq!(
                        region.get(*proc, &point),
                        single.get(*proc, &point),
                        "{name} at {point:?} on {proc:?}"
                    );
                }
            }
        }
        // Replays hit the scope's plan cache (one plan per class member).
        let misses = s.plan_cache().stats().misses;
        s.exchange_class_ghosts("U", &widths).unwrap();
        assert_eq!(s.plan_cache().stats().misses, misses);
        // Non-primaries and unknown names are rejected.
        assert!(matches!(
            s.exchange_class_ghosts("V", &widths),
            Err(CoreError::NotAPrimaryArray { .. })
        ));
        assert!(matches!(
            s.exchange_class_ghosts("ZZZ", &widths),
            Err(CoreError::UnknownArray { .. })
        ));
    }

    #[test]
    fn multi_array_distribute_fuses_across_primaries() {
        let p = 4usize;
        let mut s = scope(p);
        s.declare_dynamic(DynamicDecl::new("B1", IndexDomain::d1(24)).initial(DistType::block1d()))
            .unwrap();
        s.declare_dynamic(DynamicDecl::new("B2", IndexDomain::d1(24)).initial(DistType::block1d()))
            .unwrap();
        for i in 1..=24i64 {
            s.array_mut("B1")
                .unwrap()
                .set(&Point::d1(i), i as f64)
                .unwrap();
            s.array_mut("B2")
                .unwrap()
                .set(&Point::d1(i), -(i as f64))
                .unwrap();
        }
        s.take_stats();
        // DISTRIBUTE B1, B2 :: (CYCLIC(1)) — two primaries, one statement,
        // one message per pair.
        let report = s
            .distribute(DistributeStmt::multi(["B1", "B2"], DistType::cyclic1d(1)))
            .unwrap();
        assert!(report.fused.is_some());
        assert!(report.messages() <= p * (p - 1));
        assert_eq!(report.unfused_messages(), 2 * report.messages());
        assert_eq!(s.stats().total_messages(), report.messages());
        for i in 1..=24i64 {
            assert_eq!(s.array("B1").unwrap().get(&Point::d1(i)).unwrap(), i as f64);
            assert_eq!(
                s.array("B2").unwrap().get(&Point::d1(i)).unwrap(),
                -(i as f64)
            );
        }
    }

    #[test]
    fn indirect_distribute_round_trips_and_fuses_the_class() {
        use std::sync::Arc;
        use vf_dist::IndirectMap;
        let p = 4usize;
        let n = 32usize;
        let mut s = scope(p);
        // RANGE admits BLOCK and any INDIRECT map; an unlisted class is
        // still rejected.
        s.declare_dynamic(
            DynamicDecl::new("B", IndexDomain::d1(n))
                .range([
                    DistPattern::dims(vec![DimPattern::Block]),
                    DistPattern::dims(vec![DimPattern::IndirectAny]),
                ])
                .initial(DistType::block1d()),
        )
        .unwrap();
        s.declare_secondary(SecondaryDecl::extraction("A", IndexDomain::d1(n), "B"))
            .unwrap();
        for i in 1..=n as i64 {
            s.array_mut("B")
                .unwrap()
                .set(&Point::d1(i), i as f64)
                .unwrap();
            s.array_mut("A")
                .unwrap()
                .set(&Point::d1(i), -(i as f64))
                .unwrap();
        }
        assert!(matches!(
            s.distribute(DistributeStmt::new("B", DistType::cyclic1d(1))),
            Err(CoreError::OutsideRange { .. })
        ));

        // BLOCK -> INDIRECT(map1) -> INDIRECT(map2) -> BLOCK, data intact
        // at every stage; the two-array class fuses every stage.
        let map1 = Arc::new(IndirectMap::from_fn(n, |i| (i * 13 + 5) % p).unwrap());
        let map2 = Arc::new(IndirectMap::from_fn(n, |i| (i / 3) % p).unwrap());
        for t in [
            DistType::indirect1d(Arc::clone(&map1)),
            DistType::indirect1d(Arc::clone(&map2)),
            DistType::block1d(),
        ] {
            let report = s.distribute(DistributeStmt::new("B", t.clone())).unwrap();
            assert!(report.fused.is_some(), "class of 2 fuses for {t}");
            assert!(report.messages() <= p * (p - 1));
            assert_eq!(s.current_dist_type("B").unwrap(), t);
            assert_eq!(s.current_dist_type("A").unwrap(), t);
            for i in 1..=n as i64 {
                assert_eq!(s.array("B").unwrap().get(&Point::d1(i)).unwrap(), i as f64);
                assert_eq!(
                    s.array("A").unwrap().get(&Point::d1(i)).unwrap(),
                    -(i as f64)
                );
            }
        }
        // Repeating the same cycle hits the plan cache for every stage.
        let misses_before = s.plan_cache().stats().misses;
        for t in [
            DistType::indirect1d(Arc::clone(&map1)),
            DistType::indirect1d(map2),
            DistType::block1d(),
        ] {
            s.distribute(DistributeStmt::new("B", t)).unwrap();
        }
        let stats = s.plan_cache().stats();
        assert_eq!(stats.misses, misses_before, "second cycle plans nothing");
        assert!(stats.hits >= 6);
    }

    #[test]
    fn notransfer_skips_data_motion_for_named_secondary() {
        let mut s = scope(4);
        s.declare_dynamic(DynamicDecl::new("B", IndexDomain::d1(16)).initial(DistType::block1d()))
            .unwrap();
        s.declare_secondary(SecondaryDecl::extraction("A", IndexDomain::d1(16), "B"))
            .unwrap();
        for i in 1..=16i64 {
            s.array_mut("A").unwrap().set(&Point::d1(i), 1.0).unwrap();
        }
        let report = s
            .distribute(DistributeStmt::new("B", DistType::cyclic1d(1)).notransfer(["A"]))
            .unwrap();
        let a_report = report
            .per_array
            .iter()
            .find(|(n, _)| n == "A")
            .map(|(_, r)| r.clone())
            .unwrap();
        assert_eq!(a_report.moved_elements, 0);
        assert_eq!(a_report.bytes, 0);
        // A's descriptor changed even though the data was not moved.
        assert_eq!(s.current_dist_type("A").unwrap(), DistType::cyclic1d(1));
    }

    #[test]
    fn deferred_first_distribution_allocates() {
        let mut s = scope(2);
        s.declare_dynamic(DynamicDecl::new("B1", IndexDomain::d1(8)))
            .unwrap();
        s.declare_secondary(SecondaryDecl::extraction("A1", IndexDomain::d1(8), "B1"))
            .unwrap();
        assert!(!s.is_distributed("B1"));
        assert!(!s.is_distributed("A1"));
        let report = s
            .distribute(DistributeStmt::new("B1", DistType::block1d()))
            .unwrap();
        assert!(s.is_distributed("B1"));
        assert!(s.is_distributed("A1"));
        assert_eq!(report.moved_elements(), 0);
        assert_eq!(s.descriptor("B1").unwrap().dist_type, DistType::block1d());
    }

    #[test]
    fn idt_checks_current_distribution() {
        let mut s = scope(4);
        s.declare_dynamic(
            DynamicDecl::new("V", IndexDomain::d2(8, 8)).initial(DistType::columns()),
        )
        .unwrap();
        assert!(s
            .idt("V", &DistPattern::exact(&DistType::columns()))
            .unwrap());
        assert!(!s.idt("V", &DistPattern::exact(&DistType::rows())).unwrap());
        assert!(s
            .idt(
                "V",
                &DistPattern::dims(vec![DimPattern::Star, DimPattern::Block])
            )
            .unwrap());
        s.distribute(DistributeStmt::new("V", DistType::rows()))
            .unwrap();
        assert!(s.idt("V", &DistPattern::exact(&DistType::rows())).unwrap());
    }

    #[test]
    fn secondary_with_unknown_or_invalid_primary_rejected() {
        let mut s = scope(2);
        assert!(matches!(
            s.declare_secondary(SecondaryDecl::extraction("A", IndexDomain::d1(4), "NOPE")),
            Err(CoreError::UnknownArray { .. })
        ));
        s.declare_static(StaticDecl::new(
            "U",
            IndexDomain::d1(4),
            DistType::block1d(),
        ))
        .unwrap();
        assert!(matches!(
            s.declare_secondary(SecondaryDecl::extraction("A", IndexDomain::d1(4), "U")),
            Err(CoreError::InvalidConnection { .. })
        ));
    }

    #[test]
    fn a_layout_cycle_settles_on_the_buffers_its_statements_retire() {
        // The stmt-shared cycle (:,BLOCK) -> (BLOCK,:) -> (CYCLIC(2),:) ->
        // (:,GEN_BLOCK) -> (:,BLOCK) on a class of four, three times over.
        // Its general blocks are longer and shorter than BLOCK's, so the
        // first cycle allocates; from the second on every destination of
        // every DISTRIBUTE is a buffer the previous statement retired, and
        // the store never holds more than its bound.
        let (n, p, members) = (24usize, 4usize, 4usize);
        let blocks = vec![3, 6, 10, 5];
        let longest = 10 * n;
        let cycle = [
            DistType::rows(),
            DistType::new(vec![DimDist::Cyclic(2), DimDist::NotDistributed]),
            DistType::new(vec![DimDist::NotDistributed, DimDist::GenBlock(blocks)]),
            DistType::columns(),
        ];
        let backends = [
            ExecBackend::Serial,
            ExecBackend::Threaded(
                vf_runtime::ThreadedExecutor::with_pool(std::sync::Arc::new(
                    vf_machine::WorkerPool::new(2),
                ))
                .with_serial_cutoff(0),
            ),
        ];
        for backend in backends {
            let mut s = scope(p);
            s.set_executor(backend);
            let domain = IndexDomain::d2(n, n);
            let names: Vec<String> = (0..members).map(|k| format!("A{k}")).collect();
            s.declare_dynamic(
                DynamicDecl::new(&names[0], domain.clone()).initial(DistType::columns()),
            )
            .unwrap();
            for name in &names[1..] {
                s.declare_secondary(SecondaryDecl::extraction(name, domain.clone(), &names[0]))
                    .unwrap();
            }
            for (k, name) in names.iter().enumerate() {
                let array = s.array_mut(name).unwrap();
                for q in 0..p {
                    for (i, v) in array.local_mut(ProcId(q)).iter_mut().enumerate() {
                        *v = (k * 1000 + q * 100) as f64 + i as f64;
                    }
                }
            }
            let dense: Vec<Vec<f64>> = names
                .iter()
                .map(|a| s.array(a).unwrap().to_dense())
                .collect();
            let locals = |s: &VfScope<f64>| -> Vec<*const f64> {
                (names.iter())
                    .flat_map(|a| (0..p).map(move |q| (a, q)))
                    .map(|(a, q)| s.array(a).unwrap().local(ProcId(q)).as_ptr())
                    .collect()
            };
            let bound = members * p * longest * 8;
            let mut before_last = Vec::new();
            let mut held_per_cycle = Vec::new();
            for round in 0..3 {
                for layout in &cycle {
                    let before = locals(&s);
                    s.distribute(DistributeStmt::new(&names[0], layout.clone()))
                        .unwrap();
                    if round > 0 {
                        let after = locals(&s);
                        let recycled = after.iter().filter(|at| before_last.contains(*at));
                        assert_eq!(recycled.count(), members * p, "round {round}, {layout}");
                    }
                    assert!(s.retired.held_bytes() <= bound, "round {round}, {layout}");
                    before_last = before;
                }
                held_per_cycle.push(s.retired.held_bytes());
                for (a, dense) in names.iter().zip(&dense) {
                    assert_eq!(&s.array(a).unwrap().to_dense(), dense);
                }
            }
            assert_eq!(held_per_cycle[1], held_per_cycle[2], "the store settled");
        }
    }
}
