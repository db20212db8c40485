//! The campaign service daemon: multi-tenant sessions on one virtual
//! clock.
//!
//! A [`Service`] owns the grid (clusters join, leave and fail at run
//! time), an [`IncrementalRepartition`] planning state, and every
//! admitted session. Requests mutate that state through
//! [`Service::handle`]; the pipe runners ([`run_pipe`],
//! [`run_script`]) feed it one JSON line at a time.
//!
//! Two invariants shape everything here:
//!
//! * **admission before execution** — no session exists unless the
//!   full admission pipeline of [`crate::admission`] accepted it;
//! * **determinism** — the daemon never reads a wall clock, spawns a
//!   thread, or iterates an unordered map, so a scripted transcript
//!   produces a byte-identical session log on every run and at every
//!   `--jobs` setting (the worker pool only builds performance
//!   vectors, which `oa-par` keeps bit-identical).
//!
//! Planning versus execution: scenario *placement* uses a
//! service-wide planning model (knapsack vectors at a fixed
//! `planning_nm`), while each admitted portion *executes* under the
//! session's own heuristic, policy, granularity, recovery and fault
//! plan. The plan decides *where* scenarios go; the session decides
//! *how* they run there.

use std::collections::BTreeMap;
use std::io::{self, BufRead, Write};

use oa_par::Pool;
use oa_platform::cluster::{Cluster, ClusterId};
use oa_sched::heuristics::Heuristic;
use oa_sched::incremental::IncrementalRepartition;
use oa_sched::memo::PlanMemo;
use oa_sched::params::Instance;
use oa_sched::policy::FaultPlan;
use oa_sched::read;
use oa_sim::batch::{run_batch_with, BatchError, BatchSpec};
use oa_sim::driver::{SessionDriver, SessionState};
use oa_trace::metrics::{self, MetricsRegistry};
use oa_workflow::ir::{classify_spec, IrClass, SpecError};

use crate::admission::{admit_portion, parse_submission, Refusal, Submission};
use crate::protocol::{CampaignReport, ExecReport, ProtocolEvent, PROTOCOL_VERSION};
use crate::wire::{
    codes, line_over_cap, parse_request, render_response, ClusterLoad, PortionInfo, Response,
    MAX_LINE_BYTES,
};

/// Tunables fixed at service start.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Grid-wide concurrent-scenario capacity: the coverage of every
    /// performance vector, hence the most scenarios that can be
    /// planned at once. Each cluster join prices `capacity` scenario
    /// counts through the planning heuristic (parallelised over the
    /// worker pool), so very large capacities make joins expensive.
    pub capacity: u32,
    /// Months-per-scenario the *planning* vectors assume. Sessions
    /// execute with their own `nm`; this one only shapes placement.
    pub planning_nm: u32,
    /// Heuristic the planning vectors are priced with.
    pub planning_heuristic: Heuristic,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            capacity: 256,
            planning_nm: 60,
            planning_heuristic: Heuristic::Knapsack,
        }
    }
}

/// One live cluster.
struct ClusterState {
    /// Service-assigned id, stable for the cluster's lifetime.
    id: u32,
    /// The platform cluster (name, resources, timing table).
    cluster: Cluster,
    /// Virtual instant the cluster finishes its last planned portion.
    free_at: f64,
}

/// One cluster's slice of a session.
struct Portion {
    /// Service cluster id the slice runs on.
    cluster_id: u32,
    /// Cluster name (survives the cluster's own departure).
    cluster_name: String,
    /// Session-scoped scenario ids.
    scenarios: Vec<u32>,
    /// Rendered grouping.
    grouping: String,
    /// The pinned simulation.
    driver: SessionDriver,
    /// Whether the planning slots were given back (portion finished,
    /// failed, or stranded at admission).
    released: bool,
}

impl Portion {
    fn info(&self) -> PortionInfo {
        PortionInfo {
            cluster: self.cluster_id,
            name: self.cluster_name.clone(),
            scenarios: self.scenarios.clone(),
            start: self.driver.start(),
            makespan: self.driver.makespan(),
            finish: self.driver.finish(),
            grouping: self.grouping.clone(),
        }
    }

    /// Months this portion is responsible for.
    fn months(&self, nm: u32) -> u32 {
        self.scenarios.len() as u32 * nm
    }
}

/// Terminal state of a session.
enum Lifecycle {
    /// Still queued or running.
    Active,
    /// Finished at the carried instant.
    Completed,
    /// Will never finish.
    Stranded,
}

/// One admitted session.
struct Session {
    name: String,
    /// Admission sequence number; doubles as the request correlation
    /// id in the completion report.
    seq: u64,
    submission: Submission,
    portions: Vec<Portion>,
    lifecycle: Lifecycle,
    /// Months destroyed by cluster failures (replans).
    months_lost: u32,
}

impl Session {
    /// Max portion finish; `None` when any portion stranded.
    fn finish(&self) -> Option<f64> {
        let mut out = 0.0f64;
        for p in &self.portions {
            out = out.max(p.driver.finish()?);
        }
        Some(out)
    }

    /// Completed months across portions at instant `t`, when every
    /// running portion's schedule resolves month progress.
    fn months_done_at(&self, t: f64) -> Option<u32> {
        let nm = self.submission.nm;
        let mut total = 0u32;
        for p in &self.portions {
            total += match p.driver.state_at(t) {
                SessionState::Pending => 0,
                SessionState::Completed { .. } => p.months(nm),
                SessionState::Stranded { completed_months } => completed_months as u32,
                SessionState::Running { months_done } => months_done?,
            };
        }
        Some(total)
    }
}

/// The daemon. See the module docs for the model.
pub struct Service {
    cfg: ServiceConfig,
    pool: Pool,
    /// The virtual clock, seconds.
    now: f64,
    clusters: Vec<ClusterState>,
    next_cluster_id: u32,
    rep: IncrementalRepartition,
    sessions: Vec<Session>,
    /// Session name → index in `sessions`.
    index: BTreeMap<String, usize>,
    next_seq: u64,
    /// The planning memo: knapsack DP tables and makespan scans shared
    /// by `ClusterJoin` pricing and `VariantSweep` execution.
    memo: PlanMemo,
    metrics: MetricsRegistry,
    shut_down: bool,
    admitted_total: u64,
    completed_total: u64,
}

impl Service {
    /// A fresh service with no clusters and no sessions.
    #[must_use]
    pub fn new(cfg: ServiceConfig, jobs: usize) -> Self {
        Self {
            cfg,
            pool: Pool::new(jobs),
            now: 0.0,
            clusters: Vec::new(),
            next_cluster_id: 0,
            rep: IncrementalRepartition::new(Vec::new()),
            sessions: Vec::new(),
            index: BTreeMap::new(),
            next_seq: 1,
            memo: PlanMemo::new(),
            metrics: MetricsRegistry::new(),
            shut_down: false,
            admitted_total: 0,
            completed_total: 0,
        }
    }

    /// The current virtual instant.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Whether `Shutdown` was processed; runners stop reading.
    #[must_use]
    pub fn is_shut_down(&self) -> bool {
        self.shut_down
    }

    /// The service metrics registry (counters, gauges, histograms).
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Records an externally measured latency into a service
    /// histogram. The daemon itself never reads a wall clock — the
    /// bench harness times `handle()` calls and feeds the
    /// `service_admit_latency_secs` / `service_decision_latency_secs`
    /// histograms through this hook. Buckets are the sub-second
    /// [`metrics::LATENCY_BUCKETS`] — scheduling decisions are
    /// microsecond-scale, far below the default virtual-time buckets.
    pub fn observe_latency(&mut self, key: &str, secs: f64) {
        self.metrics
            .observe_in(key, &metrics::LATENCY_BUCKETS, secs);
    }

    /// Parses and handles one request line; a line over
    /// [`MAX_LINE_BYTES`] is refused with `PROTO011` unparsed.
    pub fn handle_line(&mut self, line: &str) -> Vec<Response> {
        match parse_request(line) {
            Ok(req) => self.handle(req),
            Err(e) => Self::error(e.code, e.message),
        }
    }

    /// Handles one request, returning every response it provokes, in
    /// order.
    pub fn handle(&mut self, req: crate::wire::Request) -> Vec<Response> {
        use crate::wire::Request;
        match req {
            Request::Hello { version } => self.hello(version),
            Request::ClusterJoin {
                name,
                preset,
                resources,
            } => self.cluster_join(&name, &preset, resources),
            Request::ClusterLeave { name } => self.cluster_leave(&name),
            Request::ClusterFail { name, at } => self.cluster_fail(&name, at),
            Request::Submit {
                session,
                ns,
                nm,
                heuristic,
                policy,
                granularity,
                recovery,
                kills,
                deadline,
            } => {
                let admitted = self.submit(
                    &session,
                    ns,
                    nm,
                    &heuristic,
                    &policy,
                    &granularity,
                    &recovery,
                    &kills,
                    deadline,
                );
                self.answer(&session, admitted)
            }
            Request::SubmitWorkflow {
                session,
                workflow,
                heuristic,
                policy,
                recovery,
                kills,
                deadline,
            } => {
                let admitted = self.submit_workflow(
                    &session, &workflow, &heuristic, &policy, &recovery, &kills, deadline,
                );
                self.answer(&session, admitted)
            }
            Request::VariantSweep { spec } => self.variant_sweep(&spec),
            Request::Status { session } => self.status(&session),
            Request::Advance { to } => self.advance(to),
            Request::Drain {} => self.drain(),
            Request::Metrics {} => vec![Response::MetricsReport {
                text: self.metrics.snapshot().render_text(),
            }],
            Request::Shutdown {} => {
                self.shut_down = true;
                vec![Response::Bye {
                    at: self.now,
                    admitted: self.admitted_total,
                    completed: self.completed_total,
                }]
            }
        }
    }

    fn error(code: &str, message: impl Into<String>) -> Vec<Response> {
        vec![Response::Error {
            code: code.to_string(),
            message: message.into(),
        }]
    }

    fn hello(&self, version: u32) -> Vec<Response> {
        if version != PROTOCOL_VERSION {
            return Self::error(
                codes::VERSION_MISMATCH,
                format!("service speaks protocol {PROTOCOL_VERSION}, client sent {version}"),
            );
        }
        vec![Response::Welcome {
            version: PROTOCOL_VERSION,
            service: "oa-service".to_string(),
        }]
    }

    /// Planned load per cluster, in join order.
    fn plan_loads(&self) -> Vec<ClusterLoad> {
        self.clusters
            .iter()
            .zip(self.rep.counts())
            .map(|(c, &k)| ClusterLoad {
                name: c.cluster.name.clone(),
                scenarios: k,
            })
            .collect()
    }

    fn cluster_pos(&self, name: &str) -> Option<usize> {
        self.clusters.iter().position(|c| c.cluster.name == name)
    }

    fn cluster_join(&mut self, name: &str, preset: &str, resources: u32) -> Vec<Response> {
        if self.cluster_pos(name).is_some() {
            return Self::error(
                codes::DUPLICATE_ID,
                format!("cluster {name:?} already joined"),
            );
        }
        let cluster = match read::cluster(name, preset, resources) {
            Ok(cluster) => cluster,
            Err(e) => return Self::error(e.code, e.message),
        };
        let id = self.next_cluster_id;
        self.next_cluster_id += 1;
        let vector = self.memo.performance_vector(
            ClusterId(id),
            resources,
            &cluster.timing,
            self.cfg.planning_heuristic,
            self.cfg.capacity,
            self.cfg.planning_nm,
            &self.pool,
        );
        self.rep.join(vector);
        self.clusters.push(ClusterState {
            id,
            cluster,
            free_at: self.now,
        });
        self.metrics
            .set(metrics::keys::CLUSTERS_LIVE, self.clusters.len() as f64);
        vec![Response::ClusterUp {
            name: name.to_string(),
            id,
            resources,
            plan: self.plan_loads(),
        }]
    }

    fn cluster_leave(&mut self, name: &str) -> Vec<Response> {
        let Some(pos) = self.cluster_pos(name) else {
            return Self::error(codes::UNKNOWN_ID, format!("unknown cluster {name:?}"));
        };
        let id = self.clusters[pos].id;
        if self.rep.count_of(ClusterId(id)) > 0 {
            return Self::error(
                codes::BUSY,
                format!("cluster {name:?} still holds planned scenarios; drain or fail it"),
            );
        }
        self.rep.leave(ClusterId(id));
        self.clusters.remove(pos);
        self.metrics
            .set(metrics::keys::CLUSTERS_LIVE, self.clusters.len() as f64);
        vec![Response::ClusterGone {
            name: name.to_string(),
            plan: self.plan_loads(),
        }]
    }

    /// The answer to a submission: its responses, or a counted
    /// `Rejected`.
    fn answer(&mut self, session: &str, admitted: Result<Vec<Response>, Refusal>) -> Vec<Response> {
        admitted.unwrap_or_else(|refusal| {
            self.metrics.inc(metrics::keys::SESSIONS_REJECTED, 1);
            vec![Response::Rejected {
                session: session.to_string(),
                code: refusal.code,
                message: refusal.message,
            }]
        })
    }

    /// The admission pipeline of one `Submit`, atomic: a refusal at any
    /// stage rolls the placement back in full.
    #[allow(clippy::too_many_arguments)]
    fn submit(
        &mut self,
        session: &str,
        ns: u32,
        nm: u32,
        heuristic: &str,
        policy: &str,
        granularity: &str,
        recovery: &str,
        kills: &str,
        deadline: f64,
    ) -> Result<Vec<Response>, Refusal> {
        if self.index.contains_key(session) {
            let message = format!("session {session:?} already exists");
            return Err(Refusal::new(codes::DUPLICATE_ID, message));
        }
        let sub = parse_submission(
            session,
            ns,
            nm,
            heuristic,
            policy,
            granularity,
            recovery,
            kills,
            deadline,
        )?;
        if ns > self.cfg.capacity {
            let message = format!("ns={ns} exceeds the service capacity {}", self.cfg.capacity);
            return Err(Refusal::new(codes::OVER_CAPACITY, message));
        }

        // Placement: one greedy step per scenario.
        let mut choices: Vec<ClusterId> = Vec::with_capacity(ns as usize);
        for _ in 0..ns {
            let Some(c) = self.rep.push() else {
                self.rollback(choices.len());
                let message = format!("no cluster can take scenario {} of {ns}", choices.len() + 1);
                return Err(Refusal::new(codes::OVER_CAPACITY, message));
            };
            choices.push(c);
        }

        let built = self
            .build_portions(&sub, &choices, self.now, &sub.plan)
            .and_then(|(portions, lo, hi, kernel)| match sub.deadline {
                Some(deadline) if lo > deadline => Err(Refusal::new(
                    codes::DEADLINE_UNREACHABLE,
                    format!("certified lower bound {lo:.1}s misses the deadline {deadline:.1}s"),
                )),
                _ => Ok((portions, lo, hi, kernel)),
            });
        match built {
            Ok((portions, bound_lo, bound_hi, integer_kernel)) => {
                Ok(self.commit(sub, portions, bound_lo, bound_hi, integer_kernel))
            }
            Err(refusal) => {
                self.rollback(choices.len());
                Err(refusal)
            }
        }
    }

    /// Admits a workflow-spec submission. Recognized ocean-atmosphere
    /// preset meshes route through exactly the legacy [`Self::submit`]
    /// path — same placement, same admission pipeline, byte-identical
    /// responses — with the granularity read off the mesh class. A
    /// preset-form spec is classified from its header alone, so no
    /// mesh is built for it. Structurally malformed DAGs are
    /// `PROTO009`; well-formed general DAGs are outside the service's
    /// admission scope and answer `PROTO003`.
    #[allow(clippy::too_many_arguments)]
    fn submit_workflow(
        &mut self,
        session: &str,
        workflow: &serde::Value,
        heuristic: &str,
        policy: &str,
        recovery: &str,
        kills: &str,
        deadline: f64,
    ) -> Result<Vec<Response>, Refusal> {
        let (shape, granularity) = match classify_spec(workflow) {
            Ok(IrClass::FusedMesh(shape)) => (shape, "fused"),
            Ok(IrClass::UnfusedMesh(shape)) => (shape, "unfused"),
            Ok(IrClass::General) => {
                return Err(Refusal::new(
                    codes::BAD_FIELD,
                    "the service admits only the ocean-atmosphere preset meshes; \
                     run general workflows through `oa sim --workflow`",
                ));
            }
            Err(e) => {
                let code = match &e {
                    SpecError::Malformed(_) => codes::MALFORMED_WORKFLOW,
                    SpecError::BadField(_) => codes::BAD_FIELD,
                };
                return Err(Refusal::new(code, e.to_string()));
            }
        };
        self.submit(
            session,
            shape.scenarios,
            shape.months,
            heuristic,
            policy,
            granularity,
            recovery,
            kills,
            deadline,
        )
    }

    fn rollback(&mut self, pushed: usize) {
        for _ in 0..pushed {
            self.rep.pop();
        }
    }

    /// Groups placement choices into per-cluster portions and runs the
    /// static admission pipeline on each. Returns the portions plus
    /// the session-level certified bracket and CT002 verdict.
    fn build_portions(
        &self,
        sub: &Submission,
        choices: &[ClusterId],
        at: f64,
        plan: &FaultPlan,
    ) -> Result<(Vec<Portion>, f64, Option<f64>, bool), Refusal> {
        let mut portions = Vec::new();
        let mut bound_lo = 0.0f64;
        let mut bound_hi = Some(0.0f64);
        let mut integer_kernel = true;
        for cs in &self.clusters {
            let scenarios: Vec<u32> = choices
                .iter()
                .enumerate()
                .filter(|(_, c)| c.0 == cs.id)
                .map(|(i, _)| i as u32)
                .collect();
            if scenarios.is_empty() {
                continue;
            }
            let inst = Instance::new(scenarios.len() as u32, sub.nm, cs.cluster.resources);
            let grouping = sub
                .heuristic
                .grouping(inst, &cs.cluster.timing)
                .map_err(|e| {
                    Refusal::new(
                        codes::NO_GROUPING,
                        format!("cluster {:?}: {e}", cs.cluster.name),
                    )
                })?;
            let cert = admit_portion(inst, &cs.cluster.timing, &grouping, &sub.config, plan)?;
            let start = self.now.max(cs.free_at).max(at);
            let driver = SessionDriver::new(
                start,
                inst,
                &cs.cluster.timing,
                &grouping,
                &sub.config,
                plan,
            )
            .map_err(|e| {
                Refusal::new(
                    codes::NO_GROUPING,
                    format!("cluster {:?}: {e}", cs.cluster.name),
                )
            })?;
            bound_lo = bound_lo.max(start + cert.bounds.lo);
            bound_hi = match bound_hi {
                Some(hi) if cert.bounds.hi.is_finite() => Some(hi.max(start + cert.bounds.hi)),
                _ => None,
            };
            integer_kernel &= cert.integer_kernel;
            portions.push(Portion {
                cluster_id: cs.id,
                cluster_name: cs.cluster.name.clone(),
                scenarios,
                grouping: grouping.to_string(),
                driver,
                released: false,
            });
        }
        Ok((portions, bound_lo, bound_hi, integer_kernel))
    }

    fn commit(
        &mut self,
        sub: Submission,
        portions: Vec<Portion>,
        bound_lo: f64,
        bound_hi: Option<f64>,
        integer_kernel: bool,
    ) -> Vec<Response> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let name = sub.session.clone();
        let stranded = portions.iter().any(|p| p.driver.finish().is_none());

        for p in &portions {
            self.metrics
                .observe(metrics::keys::QUEUE_WAIT_SECS, p.driver.start() - self.now);
            // A finishing portion blocks its cluster until it drains.
            if let Some(finish) = p.driver.finish() {
                let pos = self
                    .clusters
                    .iter()
                    .position(|c| c.id == p.cluster_id)
                    .expect("portion cluster is live at admission");
                self.clusters[pos].free_at = self.clusters[pos].free_at.max(finish);
            }
        }

        let info: Vec<PortionInfo> = portions.iter().map(Portion::info).collect();
        let predicted_finish = portions
            .iter()
            .map(|p| p.driver.finish())
            .try_fold(0.0f64, |acc, f| f.map(|f| acc.max(f)));
        let mut session = Session {
            name: name.clone(),
            seq,
            submission: sub,
            portions,
            lifecycle: Lifecycle::Active,
            months_lost: 0,
        };

        self.admitted_total += 1;
        self.metrics.inc(metrics::keys::SESSIONS_ADMITTED, 1);
        let mut out = vec![Response::Admitted {
            session: name.clone(),
            at: self.now,
            portions: info,
            predicted_finish,
            bound_lo,
            bound_hi,
            integer_kernel,
            plan: self.plan_loads(),
        }];

        if stranded {
            // Dead on arrival: every group of some portion dies under
            // the fault plan. Give the slots back immediately and
            // report the stranding.
            let completed_months = session.months_done_at(f64::INFINITY).map_or(0, u64::from);
            for i in 0..session.portions.len() {
                Self::release_portion(&mut self.rep, &mut session.portions[i]);
            }
            session.lifecycle = Lifecycle::Stranded;
            self.metrics.inc(metrics::keys::SESSIONS_STRANDED, 1);
            out.push(Response::Stranded {
                session: name.clone(),
                at: self.now,
                completed_months,
            });
        } else {
            self.metrics.add(metrics::keys::SESSIONS_ACTIVE, 1.0);
        }

        let idx = self.sessions.len();
        self.sessions.push(session);
        self.index.insert(name, idx);
        out
    }

    /// Gives a portion's planning slots back (idempotent). The greedy
    /// counts at population `n - k` need not place anything on this
    /// portion's physical cluster; when the plan holds no slot there,
    /// the departure is a plain pop — the planning model only needs
    /// the population to shrink, and `pop` keeps the counts equal to
    /// the batch greedy of the remaining population.
    fn release_portion(rep: &mut IncrementalRepartition, portion: &mut Portion) {
        if portion.released {
            return;
        }
        portion.released = true;
        for _ in 0..portion.scenarios.len() {
            if rep.remove_from(ClusterId(portion.cluster_id)).is_none() {
                rep.pop();
            }
        }
    }

    /// Runs a mass-batch variant sweep through the daemon's planning
    /// memo and worker pool. The sweep is clock-free — it neither
    /// creates a session nor advances virtual time — and its answer
    /// is bitwise-deterministic at every `--jobs` setting, so sweep
    /// lines in a scripted transcript replay byte-identically.
    fn variant_sweep(&mut self, spec: &serde::Value) -> Vec<Response> {
        let spec = match BatchSpec::from_json(spec) {
            Ok(spec) => spec,
            Err(e @ BatchError::OverSizeCap(_)) => {
                return Self::error(codes::OVER_SIZE_CAP, e.to_string())
            }
            Err(e) => return Self::error(codes::BAD_SWEEP, e.to_string()),
        };
        let report = match run_batch_with(&spec, &self.pool, &mut self.memo) {
            Ok(report) => report,
            Err(e) => return Self::error(codes::BAD_SWEEP, e.to_string()),
        };
        let s = report.summary();
        self.metrics
            .add(metrics::keys::SWEEP_VARIANTS_TOTAL, s.variants as f64);
        vec![Response::SweepReport {
            variants: s.variants,
            completed: s.completed,
            stranded: s.stranded,
            shapes: report.shapes as u64,
            heads: report.heads as u64,
            makespan_min: s.makespan_min,
            makespan_max: s.makespan_max,
            makespan_mean: s.makespan_mean,
            months_lost_total: s.months_lost_total,
            lost_proc_secs_total: s.lost_proc_secs_total,
            checksum: s.checksum,
            memo_hits: report.memo.hits,
            memo_misses: report.memo.misses,
            memo_dp_builds: report.memo.dp_builds,
        }]
    }

    fn status(&self, session: &str) -> Vec<Response> {
        let Some(&idx) = self.index.get(session) else {
            return Self::error(codes::UNKNOWN_ID, format!("unknown session {session:?}"));
        };
        let s = &self.sessions[idx];
        let lifecycle = match s.lifecycle {
            Lifecycle::Completed => "completed",
            Lifecycle::Stranded => "stranded",
            Lifecycle::Active => {
                if s.portions.iter().all(|p| p.driver.start() > self.now) {
                    "queued"
                } else {
                    "running"
                }
            }
        };
        vec![Response::State {
            session: session.to_string(),
            at: self.now,
            lifecycle: lifecycle.to_string(),
            months_done: s.months_done_at(self.now),
            finish: s.finish(),
        }]
    }

    fn advance(&mut self, to: f64) -> Vec<Response> {
        if !to.is_finite() || to < self.now {
            return Self::error(
                codes::TIME_REGRESSION,
                format!("cannot advance to {to}: the clock is at {}", self.now),
            );
        }
        let mut out = self.advance_to(to);
        let completed = out
            .iter()
            .filter(|r| matches!(r, Response::Completed { .. }))
            .count() as u32;
        self.now = to;
        out.push(Response::Advanced { to, completed });
        out
    }

    fn drain(&mut self) -> Vec<Response> {
        let target = self
            .sessions
            .iter()
            .filter(|s| matches!(s.lifecycle, Lifecycle::Active))
            .filter_map(Session::finish)
            .fold(self.now, f64::max);
        let mut out = self.advance_to(target);
        let completed = out
            .iter()
            .filter(|r| matches!(r, Response::Completed { .. }))
            .count() as u32;
        self.now = target;
        out.push(Response::Drained {
            at: target,
            completed,
        });
        out
    }

    /// Releases every portion finishing by `t` and completes every
    /// session finishing by `t`, in chronological order (ties broken
    /// by admission order). Does not move the clock.
    fn advance_to(&mut self, t: f64) -> Vec<Response> {
        // Portion releases first: slots free the instant the cluster
        // finishes the work, independent of sibling portions.
        let mut releases: Vec<(f64, u64, usize, usize)> = Vec::new();
        for (i, s) in self.sessions.iter().enumerate() {
            if !matches!(s.lifecycle, Lifecycle::Active) {
                continue;
            }
            for (j, p) in s.portions.iter().enumerate() {
                if p.released {
                    continue;
                }
                if let Some(f) = p.driver.finish() {
                    if f <= t {
                        releases.push((f, s.seq, i, j));
                    }
                }
            }
        }
        releases.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.3.cmp(&b.3)));
        for &(_, _, i, j) in &releases {
            Self::release_portion(&mut self.rep, &mut self.sessions[i].portions[j]);
        }

        let mut done: Vec<(f64, u64, usize)> = self
            .sessions
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s.lifecycle, Lifecycle::Active))
            .filter_map(|(i, s)| s.finish().map(|f| (f, s.seq, i)))
            .filter(|&(f, _, _)| f <= t)
            .collect();
        done.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        let mut out = Vec::new();
        for (finish, _, i) in done {
            self.sessions[i].lifecycle = Lifecycle::Completed;
            self.completed_total += 1;
            self.metrics.inc(metrics::keys::SESSIONS_COMPLETED, 1);
            self.metrics.add(metrics::keys::SESSIONS_ACTIVE, -1.0);
            let report = Self::completion_report(&self.sessions[i]);
            let months_lost = self.sessions[i].months_lost
                + self.sessions[i]
                    .portions
                    .iter()
                    .filter_map(|p| p.driver.months_lost())
                    .sum::<u32>();
            out.push(Response::Completed {
                session: self.sessions[i].name.clone(),
                finish,
                months_lost,
                report,
                plan: self.plan_loads(),
            });
        }
        out
    }

    /// Renders a finished session as a campaign report: the busy
    /// clusters only, with protocol steps 1 and 4–6 (steps 2–3 happened
    /// at each `ClusterJoin`).
    fn completion_report(s: &Session) -> CampaignReport {
        let mut trace = vec![ProtocolEvent::RequestReceived {
            request: s.seq,
            ns: s.submission.ns,
            nm: s.submission.nm,
        }];
        trace.push(ProtocolEvent::RepartitionComputed {
            nb_dags: s
                .portions
                .iter()
                .map(|p| p.scenarios.len() as u32)
                .collect(),
        });
        let mut reports = Vec::with_capacity(s.portions.len());
        for p in &s.portions {
            trace.push(ProtocolEvent::ExecSent {
                cluster: ClusterId(p.cluster_id),
                scenarios: p.scenarios.len() as u32,
            });
            let makespan = p.driver.makespan().unwrap_or(f64::INFINITY);
            trace.push(ProtocolEvent::ReportReceived {
                cluster: ClusterId(p.cluster_id),
                makespan,
            });
            reports.push(ExecReport {
                request: s.seq,
                cluster: ClusterId(p.cluster_id),
                scenarios: p.scenarios.clone(),
                makespan,
                grouping: p.grouping.clone(),
            });
        }
        CampaignReport::from_reports(s.seq, reports, trace)
    }

    fn cluster_fail(&mut self, name: &str, at: f64) -> Vec<Response> {
        let Some(pos) = self.cluster_pos(name) else {
            return Self::error(codes::UNKNOWN_ID, format!("unknown cluster {name:?}"));
        };
        if !at.is_finite() || at < self.now {
            return Self::error(
                codes::TIME_REGRESSION,
                format!("cannot fail at {at}: the clock is at {}", self.now),
            );
        }
        let dead_id = self.clusters[pos].id;

        // Everything finishing before the failure really finished.
        let mut out = self.advance_to(at);
        self.now = at;

        // Displace: every active session with unfinished work on the
        // dead cluster loses that work outright — the restart files
        // die with the cluster.
        let mut victims: Vec<usize> = Vec::new();
        for (i, s) in self.sessions.iter_mut().enumerate() {
            if !matches!(s.lifecycle, Lifecycle::Active) {
                continue;
            }
            let mut hit = false;
            for p in &mut s.portions {
                if p.cluster_id == dead_id && !p.released {
                    Self::release_portion(&mut self.rep, p);
                    s.months_lost += p.months(s.submission.nm);
                    hit = true;
                }
            }
            if hit {
                victims.push(i);
            }
        }
        // Drop the failed portions so the session is exactly its
        // surviving work plus whatever the replan adds.
        for &i in &victims {
            self.sessions[i].portions.retain(|p| {
                !(p.cluster_id == dead_id && p.released && p.driver.finish().is_none_or(|f| f > at))
            });
        }

        let pos = self.cluster_pos(name).expect("no mutation removed it yet");
        self.rep.leave(ClusterId(dead_id));
        self.clusters.remove(pos);
        self.metrics
            .set(metrics::keys::CLUSTERS_LIVE, self.clusters.len() as f64);
        out.push(Response::ClusterFailed {
            name: name.to_string(),
            at,
            displaced: victims
                .iter()
                .map(|&i| self.sessions[i].name.clone())
                .collect(),
            plan: self.plan_loads(),
        });

        // Replan each victim's lost scenarios onto the survivors, in
        // admission order. The session's fault plan already fired on
        // the original placement; replanned portions run fault-free.
        for i in victims {
            let lost = self.sessions[i].submission.ns as usize
                - self.sessions[i]
                    .portions
                    .iter()
                    .map(|p| p.scenarios.len())
                    .sum::<usize>();
            let mut choices = Vec::with_capacity(lost);
            let mut ok = true;
            for _ in 0..lost {
                match self.rep.push() {
                    Some(c) => choices.push(c),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                let sub = self.sessions[i].submission.clone();
                match self.build_portions(&sub, &choices, at, &FaultPlan::none()) {
                    Ok((mut portions, ..)) => {
                        // Replanned scenarios keep their original ids:
                        // the lost ones, in ascending order.
                        let kept: Vec<u32> = self.sessions[i]
                            .portions
                            .iter()
                            .flat_map(|p| p.scenarios.iter().copied())
                            .collect();
                        let mut missing: Vec<u32> =
                            (0..sub.ns).filter(|s| !kept.contains(s)).collect();
                        for p in &mut portions {
                            let take: Vec<u32> = missing.drain(..p.scenarios.len()).collect();
                            p.scenarios = take;
                        }
                        for p in &portions {
                            if let Some(finish) = p.driver.finish() {
                                let cpos = self
                                    .clusters
                                    .iter()
                                    .position(|c| c.id == p.cluster_id)
                                    .expect("replan targets live clusters");
                                self.clusters[cpos].free_at =
                                    self.clusters[cpos].free_at.max(finish);
                            }
                        }
                        let info: Vec<PortionInfo> = portions.iter().map(Portion::info).collect();
                        self.sessions[i].portions.extend(portions);
                        out.push(Response::Replanned {
                            session: self.sessions[i].name.clone(),
                            at,
                            portions: info,
                            months_lost: self.sessions[i].months_lost,
                        });
                        continue;
                    }
                    Err(_) => {
                        self.rollback(choices.len());
                    }
                }
            } else {
                self.rollback(choices.len());
            }
            // No capacity survives for this session: stranded.
            let s = &mut self.sessions[i];
            for p in &mut s.portions {
                Self::release_portion(&mut self.rep, p);
            }
            s.lifecycle = Lifecycle::Stranded;
            let completed_months = s.months_done_at(at).map_or(0, u64::from);
            self.metrics.inc(metrics::keys::SESSIONS_STRANDED, 1);
            self.metrics.add(metrics::keys::SESSIONS_ACTIVE, -1.0);
            out.push(Response::Stranded {
                session: s.name.clone(),
                at,
                completed_months,
            });
        }
        out
    }
}

/// Reads the next line of `input` into `buf` without its `\n` (or
/// `\r\n`), buffering at most [`MAX_LINE_BYTES`] of it. Returns `None`
/// at end of input, `Some(false)` for a line within the cap and
/// `Some(true)` for a longer one, whose bytes are read and dropped.
fn read_line_capped<R: BufRead>(input: &mut R, buf: &mut Vec<u8>) -> io::Result<Option<bool>> {
    buf.clear();
    let (mut over, mut any) = (false, false);
    loop {
        let chunk = match input.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            // End of input: a last line without its newline still counts.
            return Ok(any.then_some(over));
        }
        any = true;
        let newline = chunk.iter().position(|&b| b == b'\n');
        let text = &chunk[..newline.unwrap_or(chunk.len())];
        if buf.len() + text.len() > MAX_LINE_BYTES {
            over = true;
            buf.clear();
        } else if !over {
            buf.extend_from_slice(text);
        }
        let used = newline.map_or(chunk.len(), |i| i + 1);
        input.consume(used);
        if newline.is_some() {
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            return Ok(Some(over));
        }
    }
}

/// Runs the service over buffered line I/O until EOF or `Shutdown`.
/// Every response is written as one JSON line, flushed per request so
/// a piped client can play request/response lockstep. Each line is
/// read through [`MAX_LINE_BYTES`]: a longer one is answered
/// `PROTO011` without being buffered, and the daemon reads on.
pub fn run_pipe<R: BufRead, W: Write>(
    service: &mut Service,
    mut input: R,
    out: &mut W,
) -> io::Result<()> {
    let mut buf = Vec::new();
    while let Some(over) = read_line_capped(&mut input, &mut buf)? {
        let responses = if over {
            let e = line_over_cap();
            Service::error(e.code, e.message)
        } else {
            let line = std::str::from_utf8(&buf)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            if line.trim().is_empty() {
                continue;
            }
            service.handle_line(line)
        };
        for resp in responses {
            writeln!(out, "{}", render_response(&resp))?;
        }
        out.flush()?;
        if service.is_shut_down() {
            break;
        }
    }
    Ok(())
}

/// Feeds a scripted transcript (one request per line; blank lines
/// ignored) and returns the full response log as one string — the
/// deterministic-replay entry point the tests and `oa serve --script`
/// use.
#[must_use]
pub fn run_script(service: &mut Service, script: &str) -> String {
    let mut out = String::new();
    for line in script.lines() {
        if line.trim().is_empty() {
            continue;
        }
        for resp in service.handle_line(line) {
            out.push_str(&render_response(&resp));
            out.push('\n');
        }
        if service.is_shut_down() {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Service {
        let cfg = ServiceConfig {
            capacity: 16,
            planning_nm: 12,
            ..Default::default()
        };
        Service::new(cfg, 1)
    }

    /// `VariantSweep` answers a deterministic `SweepReport`, leaves
    /// the virtual clock untouched, and replays byte-identically at
    /// any worker count; invalid specs are refused with `PROTO010`.
    #[test]
    fn variant_sweep_is_deterministic_and_clock_free() {
        let script = "{\"Hello\": {\"version\": 1}}\n\
            {\"VariantSweep\": {\"spec\": {\"r\": 30, \"ns\": 4, \"nm\": 40, \
             \"variants\": 32, \"max_faults\": 2, \"seed\": 9}}}\n\
            {\"VariantSweep\": {\"spec\": {\"variants\": 0}}}\n";
        let log1 = run_script(&mut small(), script);
        let mut wide = Service::new(
            ServiceConfig {
                capacity: 16,
                planning_nm: 12,
                ..Default::default()
            },
            4,
        );
        let log4 = run_script(&mut wide, script);
        assert_eq!(log1, log4, "sweep log varies with --jobs");
        assert!(log1.contains("\"SweepReport\""), "log:\n{log1}");
        assert!(log1.contains("\"variants\":32"));
        assert!(log1.contains("\"checksum\""));
        assert!(log1.contains("\"PROTO010\""));
        // Clock-free: the sweep admitted nothing and moved nothing.
        let mut s = small();
        let _ = run_script(&mut s, script);
        assert_eq!(s.now(), 0.0);
    }

    /// `ClusterJoin` pricing flows through the planning memo: joining
    /// identical clusters replays cached vectors, and the plan is the
    /// same as the uncached service's.
    #[test]
    fn cluster_join_pricing_replays_from_the_memo() {
        let script = "{\"Hello\": {\"version\": 1}}\n\
            {\"ClusterJoin\": {\"name\": \"a\", \"preset\": \"reference\", \"resources\": 53}}\n\
            {\"ClusterJoin\": {\"name\": \"b\", \"preset\": \"reference\", \"resources\": 53}}\n\
            {\"ClusterJoin\": {\"name\": \"c\", \"preset\": \"grillon\", \"resources\": 47}}\n";
        let log = run_script(&mut small(), script);
        assert_eq!(log.matches("\"ClusterUp\"").count(), 3, "log:\n{log}");
        // Replaying the same joins yields a byte-identical plan: the
        // memoized vectors are bitwise the uncached ones.
        let replay = run_script(&mut small(), script);
        assert_eq!(log, replay);
    }

    #[test]
    fn full_session_lifecycle() {
        let mut s = small();
        let log = run_script(
            &mut s,
            r#"
{"Hello": {"version": 1}}
{"ClusterJoin": {"name": "ref", "preset": "reference", "resources": 53}}
{"Submit": {"session": "s1", "ns": 5, "nm": 12, "heuristic": "knapsack", "policy": "least-advanced", "granularity": "fused", "recovery": "checkpoint", "kills": "", "deadline": 0.0}}
{"Drain": {}}
{"Shutdown": {}}
"#,
        );
        for kind in [
            "Welcome",
            "ClusterUp",
            "Admitted",
            "Completed",
            "Drained",
            "Bye",
        ] {
            assert!(
                log.contains(&format!("\"{kind}\"")),
                "missing {kind} in log"
            );
        }
        // The completion carries the protocol's campaign report.
        assert!(log.contains("\"RequestReceived\""));
        assert!(log.contains("\"RepartitionComputed\""));
    }

    /// Regression: planning counts at a shrunken population may place
    /// nothing on a portion's physical cluster; releasing that portion
    /// must still shrink the plan (pop fallback), or slots leak and
    /// idle clusters can never leave.
    #[test]
    fn completed_sessions_release_every_planning_slot() {
        let mut s = small();
        let mut script = String::from(
            "{\"Hello\": {\"version\": 1}}\n\
             {\"ClusterJoin\": {\"name\": \"big\", \"preset\": \"sagittaire\", \"resources\": 64}}\n\
             {\"ClusterJoin\": {\"name\": \"small\", \"preset\": \"grillon\", \"resources\": 8}}\n",
        );
        for i in 0..4 {
            script.push_str(&submit_line(&format!("s{i}"), 3));
            script.push('\n');
        }
        script.push_str("{\"Drain\": {}}\n");
        // Every session is complete, so both clusters are idle and
        // both leaves must succeed — any PROTO007 here is a leak.
        script.push_str("{\"ClusterLeave\": {\"name\": \"small\"}}\n");
        script.push_str("{\"ClusterLeave\": {\"name\": \"big\"}}\n");
        let log = run_script(&mut s, &script);
        assert_eq!(
            log.matches("\"ClusterGone\"").count(),
            2,
            "leaked slots:\n{log}"
        );
        assert!(!log.contains("PROTO007"), "leaked slots:\n{log}");
    }

    fn submit_line(session: &str, ns: u32) -> String {
        format!(
            r#"{{"Submit": {{"session": "{session}", "ns": {ns}, "nm": 12, "heuristic": "knapsack", "policy": "least-advanced", "granularity": "fused", "recovery": "checkpoint", "kills": "", "deadline": 0.0}}}}"#
        )
    }

    /// The workflow front-end invariant: a recognized preset mesh
    /// admitted through `SubmitWorkflow` produces byte-for-byte the
    /// transcript of the equivalent `Submit`.
    #[test]
    fn workflow_preset_submissions_match_submit_byte_for_byte() {
        let setup = "{\"Hello\": {\"version\": 1}}\n\
             {\"ClusterJoin\": {\"name\": \"ref\", \"preset\": \"reference\", \"resources\": 53}}\n";
        let tail = "{\"Drain\": {}}\n{\"Shutdown\": {}}";
        for granularity in ["fused", "unfused"] {
            let mut a = small();
            let submit = format!(
                r#"{{"Submit": {{"session": "s1", "ns": 5, "nm": 12, "heuristic": "knapsack", "policy": "least-advanced", "granularity": "{granularity}", "recovery": "checkpoint", "kills": "", "deadline": 0.0}}}}"#
            );
            let legacy = run_script(&mut a, &format!("{setup}{submit}\n{tail}"));
            assert!(legacy.contains("\"Completed\""), "log: {legacy}");
            let mut b = small();
            let wf = format!(
                r#"{{"SubmitWorkflow": {{"session": "s1", "workflow": {{"preset": {{"ns": 5, "nm": 12, "granularity": "{granularity}"}}}}, "heuristic": "knapsack", "policy": "least-advanced", "recovery": "checkpoint", "kills": "", "deadline": 0.0}}}}"#
            );
            let log = run_script(&mut b, &format!("{setup}{wf}\n{tail}"));
            assert_eq!(log, legacy, "{granularity} preset drifted from Submit");
        }
    }

    #[test]
    fn version_mismatch_is_refused() {
        let mut s = small();
        let log = run_script(&mut s, r#"{"Hello": {"version": 99}}"#);
        assert!(log.contains(codes::VERSION_MISMATCH), "log: {log}");
    }

    #[test]
    fn busy_cluster_cannot_leave_idle_cluster_can() {
        let mut s = small();
        let mut log = run_script(
            &mut s,
            &format!(
                "{}\n{}\n{}",
                r#"{"ClusterJoin": {"name": "a", "preset": "reference", "resources": 53}}"#,
                submit_line("s1", 3),
                r#"{"ClusterLeave": {"name": "a"}}"#,
            ),
        );
        assert!(log.contains(codes::BUSY), "log: {log}");
        log = run_script(
            &mut s,
            &format!(
                "{}\n{}",
                r#"{"Drain": {}}"#, r#"{"ClusterLeave": {"name": "a"}}"#
            ),
        );
        assert!(log.contains("\"ClusterGone\""), "log: {log}");
    }

    #[test]
    fn sessions_queue_behind_each_other_and_complete_in_order() {
        let mut s = small();
        let log = run_script(
            &mut s,
            &format!(
                "{}\n{}\n{}\n{}\n{}",
                r#"{"ClusterJoin": {"name": "a", "preset": "reference", "resources": 53}}"#,
                submit_line("s1", 3),
                submit_line("s2", 3),
                r#"{"Status": {"session": "s2"}}"#,
                r#"{"Drain": {}}"#,
            ),
        );
        // The second session waits for the first cluster slot.
        assert!(log.contains("\"lifecycle\":\"queued\""), "log: {log}");
        let c1 = log
            .find("\"Completed\":{\"session\":\"s1\"")
            .expect("s1 completes");
        let c2 = log
            .find("\"Completed\":{\"session\":\"s2\"")
            .expect("s2 completes");
        assert!(c1 < c2, "completions out of order");
    }

    #[test]
    fn cluster_failure_displaces_and_replans() {
        let mut s = small();
        let log = run_script(
            &mut s,
            &format!(
                "{}\n{}\n{}\n{}\n{}",
                r#"{"ClusterJoin": {"name": "a", "preset": "reference", "resources": 53}}"#,
                r#"{"ClusterJoin": {"name": "b", "preset": "reference", "resources": 53}}"#,
                submit_line("s1", 4),
                r#"{"ClusterFail": {"name": "a", "at": 100.0}}"#,
                r#"{"Drain": {}}"#,
            ),
        );
        assert!(log.contains("\"ClusterFailed\""), "log: {log}");
        assert!(log.contains("\"Replanned\""), "log: {log}");
        // The session still completes, later than first predicted,
        // with the lost months accounted.
        assert!(
            log.contains("\"Completed\":{\"session\":\"s1\""),
            "log: {log}"
        );
        let after = &log[log.find("\"Completed\"").unwrap()..];
        assert!(
            !after.contains("\"months_lost\":0,"),
            "lost months recorded: {log}"
        );
    }

    #[test]
    fn failure_of_the_only_cluster_strands_the_session() {
        let mut s = small();
        let log = run_script(
            &mut s,
            &format!(
                "{}\n{}\n{}",
                r#"{"ClusterJoin": {"name": "a", "preset": "reference", "resources": 53}}"#,
                submit_line("s1", 3),
                r#"{"ClusterFail": {"name": "a", "at": 100.0}}"#,
            ),
        );
        assert!(log.contains("\"Stranded\""), "log: {log}");
        let tail = run_script(&mut s, r#"{"Status": {"session": "s1"}}"#);
        assert!(tail.contains("\"lifecycle\":\"stranded\""), "tail: {tail}");
    }

    #[test]
    fn clock_never_runs_backwards() {
        let mut s = small();
        let log = run_script(
            &mut s,
            &format!(
                "{}\n{}\n{}",
                r#"{"ClusterJoin": {"name": "a", "preset": "reference", "resources": 53}}"#,
                r#"{"Advance": {"to": 500.0}}"#,
                r#"{"Advance": {"to": 100.0}}"#,
            ),
        );
        assert!(log.contains(codes::TIME_REGRESSION), "log: {log}");
        assert!((s.now() - 500.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_names_are_proto006() {
        let mut s = small();
        let log = run_script(
            &mut s,
            &format!(
                "{}\n{}\n{}",
                r#"{"Status": {"session": "ghost"}}"#,
                r#"{"ClusterLeave": {"name": "ghost"}}"#,
                r#"{"ClusterFail": {"name": "ghost", "at": 1.0}}"#,
            ),
        );
        assert_eq!(log.matches(codes::UNKNOWN_ID).count(), 3, "log: {log}");
    }

    #[test]
    fn metrics_track_the_session_ledger() {
        let mut s = small();
        let _ = run_script(
            &mut s,
            &format!(
                "{}\n{}\n{}\n{}",
                r#"{"ClusterJoin": {"name": "a", "preset": "reference", "resources": 53}}"#,
                submit_line("s1", 3),
                submit_line("s1", 3),
                r#"{"Drain": {}}"#,
            ),
        );
        let m = s.metrics();
        assert_eq!(m.counter(metrics::keys::SESSIONS_ADMITTED), Some(1));
        assert_eq!(m.counter(metrics::keys::SESSIONS_REJECTED), Some(1));
        assert_eq!(m.counter(metrics::keys::SESSIONS_COMPLETED), Some(1));
        assert_eq!(m.gauge(metrics::keys::SESSIONS_ACTIVE), Some(0.0));
        let log = run_script(&mut s, r#"{"Metrics": {}}"#);
        assert!(log.contains("service_sessions_admitted"), "log: {log}");
    }
}
