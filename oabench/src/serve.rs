//! `serve`: the daemon workload. One in-process `Service` (the five
//! preset clusters × 64 processors, capacity 512) receives seeded request
//! lines in an open loop at two fixed rates.
//!
//! Latency is timed from each line's *due* time, so a stall also counts
//! against every line queued behind it. Every line carries the response
//! kinds it expects; an expected refusal (a `CT001` deadline, a malformed
//! line's `PROTO00x`) is a success, any other `Error` or `Rejected` a
//! failure. The rendered transcript must match, byte for byte, an untimed
//! `run_script` replay of the same lines.

use oa_par::Pool;
use oa_platform::cluster::ClusterId;
use oa_platform::presets::preset_cluster;
use oa_sched::memo::PlanMemo;
use oa_sched::params::Instance;
use oa_service::admission::{admit_portion, parse_submission};
use oa_service::daemon::{run_script, Service, ServiceConfig};
use oa_service::wire::{parse_request, render_response, PortionInfo, Request, Response};
use oa_sim::driver::SessionDriver;
use oa_workflow::chain::ExperimentShape;
use oa_workflow::ir::{from_value, preset_value, recognize, IrClass};

use crate::rng::{Deck, Rng};
use crate::trace::{Clock, Tracer};
use crate::{calib, stats, Ctx, Outcome};

const PRESETS: [&str; 5] = [
    "sagittaire",
    "capricorne",
    "chinqchint",
    "grillon",
    "grelon",
];
const PROCS: u32 = 64;
const CAPACITY: u32 = 512;
/// Offered rates of the two open-loop steps, reference-host requests
/// per second: about 18% and 70% of the daemon's capacity (≈5600
/// requests per busy second with this mix).
pub const RATES: [f64; 2] = [1000.0, 4000.0];
/// Counters holding how late the generator ran at the end of each step,
/// reference-host milliseconds (worst service).
pub const LATE_KEYS: [&str; 2] = [
    "serve.generator_late_ms.r1000",
    "serve.generator_late_ms.r4000",
];
/// Fresh services per run, each a set-up sample with its own stream.
const REPS: usize = 3;
/// Lines per step per second of `--seconds`.
const LINES_PER_SEC: f64 = 300.0;
/// Virtual seconds an `Advance` moves the clock: several times the
/// per-cluster work admitted between two advances, so the planned
/// backlog drains and admission never runs out of capacity.
const ADVANCE_STEP: f64 = 4.0e6;
/// Virtual instant of the single kill in a faulty submission.
const KILL: &str = "0@3600";

/// The response kinds a line must provoke.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expect {
    /// `Admitted`, optionally followed by `Stranded` (a kill can take
    /// out a one-group portion).
    Admitted { may_strand: bool },
    /// `Rejected` with this code.
    Rejected(&'static str),
    /// `Error` with this code.
    Error(&'static str),
    /// `State`.
    State,
    /// Any number of `Completed`, then `Advanced`.
    Advanced,
    /// `MetricsReport`.
    Metrics,
}

impl Expect {
    pub fn met_by(self, got: &[Response]) -> bool {
        match (self, got) {
            (Expect::Admitted { .. }, [Response::Admitted { .. }]) => true,
            (
                Expect::Admitted { may_strand },
                [Response::Admitted { .. }, Response::Stranded { .. }],
            ) => may_strand,
            (Expect::Rejected(want), [Response::Rejected { code, .. }]) => code == want,
            (Expect::Error(want), [Response::Error { code, .. }]) => code == want,
            (Expect::State, [Response::State { .. }]) => true,
            (Expect::Metrics, [Response::MetricsReport { .. }]) => true,
            (Expect::Advanced, [rest @ .., Response::Advanced { .. }]) => {
                rest.iter().all(|r| matches!(r, Response::Completed { .. }))
            }
            _ => false,
        }
    }
}

/// A submission's fields, kept for the traced shadow admission replay.
#[derive(Debug, Clone)]
struct Sub {
    session: String,
    ns: u32,
    nm: u32,
    heuristic: &'static str,
    granularity: &'static str,
    kills: &'static str,
    deadline: f64,
    workflow: Option<serde::Value>,
}

#[derive(Debug, Clone)]
pub struct Line {
    pub text: String,
    pub expect: Expect,
    sub: Option<Sub>,
}

#[derive(Clone, Copy)]
enum Kind {
    Submit,
    Workflow,
    Status,
    Advance,
    Metrics,
    Malformed,
}

/// Campaign shapes `(nm, ns, granularity)` with their weights: nm
/// 12/120/1800 at 5:3:2, ns 1–3 evenly, 30% unfused.
fn shape_mix() -> Vec<((u32, u32, &'static str), usize)> {
    let mut mix = Vec::new();
    for (nm, w_nm) in [(12u32, 5), (120, 3), (1800, 2)] {
        for ns in 1..=3u32 {
            for (g, w_g) in [("fused", 7), ("unfused", 3)] {
                mix.push(((nm, ns, g), w_nm * w_g));
            }
        }
    }
    mix
}

fn join_lines() -> Vec<String> {
    PRESETS
        .iter()
        .map(|p| {
            let req = Request::ClusterJoin {
                name: (*p).to_string(),
                preset: (*p).to_string(),
                resources: PROCS,
            };
            serde_json::to_string(&req).expect("requests serialize")
        })
        .collect()
}

/// `n` seeded request lines. Mix: 60% `Submit` (nm 12/120/1800 at
/// 5:3:2, ns 1–3, knapsack/basic/knapsack-greedy, 30% unfused, 10% with
/// a kill, 2% with an unreachable deadline), 5% preset `SubmitWorkflow`,
/// 25% `Status`, 8% `Advance`, 1% `Metrics`, 1% malformed lines. Every
/// proportion comes from a deck, so it is exact per deck round; the
/// campaign shape (nm, ns, granularity), which sets an admission's
/// cost, is drawn jointly so costly combinations keep their exact share
/// too.
pub fn generate(seed: u64, n: usize) -> Vec<Line> {
    let mut rng = Rng::new(seed, 0x5e12e);
    let mut kinds = Deck::new(&[
        (Kind::Submit, 60),
        (Kind::Workflow, 5),
        (Kind::Status, 25),
        (Kind::Advance, 8),
        (Kind::Metrics, 1),
        (Kind::Malformed, 1),
    ]);
    // Separate decks: a workflow at nm=1800 costs a hundred submissions,
    // so its share must be exact on its own.
    let mut submit_shapes = Deck::new(&shape_mix());
    let mut workflow_shapes = Deck::new(&shape_mix());
    let mut heuristics = Deck::new(&[("knapsack", 1), ("basic", 1), ("knapsack-greedy", 1)]);
    let mut killed = Deck::new(&[(true, 1), (false, 9)]);
    let mut late = Deck::new(&[(true, 1), (false, 49)]);
    let mut broken = Deck::new(&[(0u8, 1), (1, 1), (2, 1)]);

    let mut clock = 0.0f64;
    let mut live: Vec<String> = Vec::new();
    let mut lines = Vec::with_capacity(n);
    for i in 0..n {
        let line = match kinds.draw(&mut rng) {
            Kind::Submit => {
                let (kill, miss) = (killed.draw(&mut rng), late.draw(&mut rng));
                let (nm, ns, granularity) = submit_shapes.draw(&mut rng);
                let sub = Sub {
                    session: format!("s{i}"),
                    ns,
                    nm,
                    heuristic: heuristics.draw(&mut rng),
                    granularity,
                    kills: if kill { KILL } else { "" },
                    // The clock only moves on `Advance`, so one virtual
                    // second past it is below any certified bound.
                    deadline: if miss { clock + 1.0 } else { 0.0 },
                    workflow: None,
                };
                let expect = if miss {
                    Expect::Rejected("CT001")
                } else {
                    live.push(sub.session.clone());
                    Expect::Admitted { may_strand: kill }
                };
                let req = Request::Submit {
                    session: sub.session.clone(),
                    ns: sub.ns,
                    nm: sub.nm,
                    heuristic: sub.heuristic.into(),
                    policy: "least-advanced".into(),
                    granularity: sub.granularity.into(),
                    recovery: "checkpoint".into(),
                    kills: sub.kills.into(),
                    deadline: sub.deadline,
                };
                Line {
                    text: serde_json::to_string(&req).expect("requests serialize"),
                    expect,
                    sub: Some(sub),
                }
            }
            Kind::Workflow => {
                let (nm, ns, granularity) = workflow_shapes.draw(&mut rng);
                let workflow = preset_value(ExperimentShape::new(ns, nm), granularity == "fused");
                let sub = Sub {
                    session: format!("w{i}"),
                    ns,
                    nm,
                    heuristic: heuristics.draw(&mut rng),
                    granularity,
                    kills: "",
                    deadline: 0.0,
                    workflow: Some(workflow.clone()),
                };
                live.push(sub.session.clone());
                let req = Request::SubmitWorkflow {
                    session: sub.session.clone(),
                    workflow,
                    heuristic: sub.heuristic.into(),
                    policy: "least-advanced".into(),
                    recovery: "checkpoint".into(),
                    kills: String::new(),
                    deadline: 0.0,
                };
                Line {
                    text: serde_json::to_string(&req).expect("requests serialize"),
                    expect: Expect::Admitted { may_strand: false },
                    sub: Some(sub),
                }
            }
            Kind::Status => {
                let (session, expect) = if live.is_empty() {
                    ("nobody".to_string(), Expect::Error("PROTO006"))
                } else {
                    (live[rng.below(live.len())].clone(), Expect::State)
                };
                let req = Request::Status { session };
                Line {
                    text: serde_json::to_string(&req).expect("requests serialize"),
                    expect,
                    sub: None,
                }
            }
            Kind::Advance => {
                clock += ADVANCE_STEP;
                let req = Request::Advance { to: clock };
                Line {
                    text: serde_json::to_string(&req).expect("requests serialize"),
                    expect: Expect::Advanced,
                    sub: None,
                }
            }
            Kind::Metrics => Line {
                text: serde_json::to_string(&Request::Metrics {}).expect("requests serialize"),
                expect: Expect::Metrics,
                sub: None,
            },
            Kind::Malformed => {
                let (text, code) = match broken.draw(&mut rng) {
                    0 => (format!("{{\"Status\": {{\"session\": \"s{i}\""), "PROTO001"),
                    1 => ("{\"Teleport\": {\"to\": 1.0}}".to_string(), "PROTO002"),
                    _ => ("{\"Advance\": {}}".to_string(), "PROTO003"),
                };
                Line {
                    text,
                    expect: Expect::Error(code),
                    sub: None,
                }
            }
        };
        lines.push(line);
    }
    lines
}

/// One open-loop step's measurements.
#[derive(Debug, Default)]
pub struct Step {
    /// Per-line latency from the due time, seconds.
    pub latency: Vec<f64>,
    /// Seconds spent inside `send`: the daemon's busy time.
    pub busy: f64,
    /// How late the generator sent its last line, seconds: a positive
    /// value that grows with the step means a backlog.
    pub late: f64,
}

/// Sends `n` lines through `send`, line `i` due at `start + i / rate`.
/// Latency runs from the due time to the end of `send`; waits are traced
/// as `bench.wait`.
pub fn open_loop<C: Clock>(
    clock: &mut C,
    tr: &mut Tracer,
    rate: f64,
    n: usize,
    mut send: impl FnMut(usize, &mut C, &mut Tracer),
) -> Step {
    let start = clock.now();
    let mut step = Step {
        latency: Vec::with_capacity(n),
        ..Step::default()
    };
    for i in 0..n {
        let due = start + i as f64 / rate;
        if clock.now() < due {
            tr.begin("bench.wait");
            clock.wait_until(due);
            tr.end();
        }
        let sent = clock.now();
        step.late = sent - due;
        send(i, clock, tr);
        let done = clock.now();
        step.busy += done - sent;
        step.latency.push(done - due);
    }
    step
}

fn handle_span(req: &Request) -> &'static str {
    match req {
        Request::ClusterJoin { .. } => "oa_service.cluster_join",
        Request::Submit { .. } => "oa_service.handle.submit",
        Request::SubmitWorkflow { .. } => "oa_service.handle.submit_workflow",
        Request::Status { .. } => "oa_service.handle.status",
        Request::Advance { .. } => "oa_service.handle.advance",
        Request::Metrics {} => "oa_service.handle.metrics",
        _ => "oa_service.handle.other",
    }
}

/// One request through the wire layer and the daemon, exactly as
/// `Service::handle_line` composes them, with each stage a span.
/// Appends the rendered responses to `transcript`.
fn send(svc: &mut Service, tr: &mut Tracer, line: &str, transcript: &mut String) -> Vec<Response> {
    let responses = match tr.leaf("oa_service.wire.parse", || parse_request(line)) {
        Ok(req) => tr.leaf(handle_span(&req), || svc.handle(req)),
        Err(e) => vec![Response::Error {
            code: e.code.to_string(),
            message: e.message,
        }],
    };
    tr.begin("oa_service.wire.render");
    for r in &responses {
        transcript.push_str(&render_response(r));
        transcript.push('\n');
    }
    tr.end();
    responses
}

fn service() -> Service {
    let cfg = ServiceConfig {
        capacity: CAPACITY,
        ..ServiceConfig::default()
    };
    Service::new(cfg, 1)
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let per_step = ((ctx.seconds * LINES_PER_SEC) as usize).max(400);
    let joins = join_lines();

    let mut rates: [Vec<f64>; 2] = Default::default();
    let mut late = [0.0f64; 2];
    let mut busy = 0.0f64;
    let mut replays_ok = 0usize;
    let mut last = None;
    for rep in 0..REPS {
        // Each service gets its own stream, so the pooled samples cover
        // REPS × 2 × per_step distinct requests.
        let lines = generate(Rng::new(ctx.seed, rep as u64).next_u64(), 2 * per_step);
        // Marks before the set-up and after it and each step; intervals
        // scale by the marks around them (see `calib::normalize`).
        let mut marks = vec![ctx.calibrate(5)];
        let t = ctx.wall.now();
        ctx.tr.begin("bench.setup");
        let mut svc = service();
        let mut transcript = String::new();
        for j in &joins {
            let r = send(&mut svc, &mut ctx.tr, j, &mut transcript);
            if !matches!(r.as_slice(), [Response::ClusterUp { .. }]) {
                return Err(format!("cluster join failed: {r:?}"));
            }
        }
        ctx.tr.end();
        let setup = ctx.wall.now() - t;

        let mut got: Vec<Vec<Response>> = Vec::with_capacity(lines.len());
        let mut steps = Vec::with_capacity(RATES.len());
        for (s, rate) in RATES.into_iter().enumerate() {
            let chunk = &lines[s * per_step..(s + 1) * per_step];
            // Offer the rate in reference-host terms, so the daemon runs at
            // the same utilization however fast the host is right now.
            marks.push(ctx.calibrate(9));
            let speed = calib::speed(marks[marks.len() - 1]);
            let mut clock = ctx.wall;
            steps.push(open_loop(
                &mut clock,
                &mut ctx.tr,
                rate * speed,
                chunk.len(),
                |i, _, tr| {
                    tr.set_request((s * per_step + i + 1) as u64);
                    got.push(send(&mut svc, tr, &chunk[i].text, &mut transcript));
                    tr.set_request(0);
                },
            ));
        }
        marks.push(ctx.calibrate(9));
        drop(svc);
        let scale = calib::normalize(&[1.0; 1 + RATES.len()], &marks);
        out.setup_s.push(setup * scale[0]);
        for (s, (step, f)) in steps.iter().zip(&scale[1..]).enumerate() {
            rates[s].extend(step.latency.iter().map(|l| l * f));
            late[s] = late[s].max(step.late * f);
            busy += step.busy * f;
        }
        out.attempted += lines.len() as u64;
        for (line, responses) in lines.iter().zip(&got) {
            if !line.expect.met_by(responses) {
                out.failed += 1;
                if out.notes.len() < 10 {
                    out.notes
                        .push(format!("unexpected answer to {}: {responses:?}", line.text));
                }
            }
        }

        ctx.tr.begin("bench.gate");
        let script: String = joins
            .iter()
            .map(String::as_str)
            .chain(lines.iter().map(|l| l.text.as_str()))
            .flat_map(|l| [l, "\n"])
            .collect();
        let replay = run_script(&mut service(), &script);
        ctx.tr.end();
        if replay == transcript {
            replays_ok += 1;
        } else {
            out.notes.push(format!(
                "service {rep}: the timed transcript differs from the run_script replay"
            ));
        }
        last = Some((lines, got, transcript.len()));
    }

    let (lines, got, bytes) = last.expect("REPS > 0");
    ctx.add("oa_service.wire.render_bytes", bytes as f64);
    for (key, l) in LATE_KEYS.into_iter().zip(late) {
        ctx.add(key, l * 1e3);
    }
    for r in got.iter().flatten() {
        let key = match r {
            Response::Admitted { .. } => "oa_service.sessions.admitted",
            Response::Rejected { .. } => "oa_service.sessions.rejected",
            Response::Completed { .. } => "oa_service.sessions.completed",
            _ => continue,
        };
        ctx.add(key, 1.0);
    }
    if ctx.tr.enabled() {
        let admitted: Vec<Option<Vec<PortionInfo>>> = got
            .into_iter()
            .map(|rs| match rs.into_iter().next() {
                Some(Response::Admitted { portions, .. }) => Some(portions),
                _ => None,
            })
            .collect();
        shadow_admissions(ctx, &lines, &admitted, &mut out);
        shadow_memo(ctx);
    }

    // Capacity: requests per second of daemon busy time, over every line.
    out.throughput_per_s = out.attempted as f64 / busy;
    out.gate_ok = out.failed == 0 && replays_ok == REPS;
    for (s, r) in RATES.iter().enumerate() {
        let sorted = stats::sorted(&rates[s]);
        out.notes.push(format!(
            "r{r}: {} lines, p50 {:.3} ms, p99 {} ms, max {:.3} ms, generator late {:.3} ms at step end",
            sorted.len(),
            stats::median(&sorted).unwrap_or(0.0) * 1e3,
            stats::quantile(&sorted, 0.99).map_or("n/a".into(), |v| format!("{:.3}", v * 1e3)),
            sorted.last().copied().unwrap_or(0.0) * 1e3,
            late[s] * 1e3,
        ));
    }
    out.notes.push(format!(
        "capacity {:.0} req/s of busy time over {} lines; {replays_ok} of {REPS} transcripts match their run_script replay",
        out.throughput_per_s, out.attempted
    ));
    Ok(out)
}

/// Traced runs only: replays every admitted submission's admission
/// stages from outside the daemon, one span per stage, and checks each
/// portion's simulated makespan against the `Admitted` answer.
fn shadow_admissions(
    ctx: &mut Ctx,
    lines: &[Line],
    admitted: &[Option<Vec<PortionInfo>>],
    out: &mut Outcome,
) {
    for (i, (line, portions)) in lines.iter().zip(admitted).enumerate() {
        let (Some(sub), Some(portions)) = (&line.sub, portions) else {
            continue;
        };
        ctx.tr.set_request(i as u64 + 1);
        let (mut ns, mut nm, mut granularity) = (sub.ns, sub.nm, sub.granularity);
        if let Some(doc) = &sub.workflow {
            let ir = ctx.tr.leaf("oa_workflow.ir.from_value", || from_value(doc));
            match ir.as_ref().map(recognize) {
                Ok(IrClass::FusedMesh(s)) => {
                    (ns, nm, granularity) = (s.scenarios, s.months, "fused");
                }
                Ok(IrClass::UnfusedMesh(s)) => {
                    (ns, nm, granularity) = (s.scenarios, s.months, "unfused");
                }
                _ => out.failed += 1,
            }
        }
        let parsed = ctx.tr.leaf("oa_service.admission.parse_submission", || {
            parse_submission(
                &sub.session,
                ns,
                nm,
                sub.heuristic,
                "least-advanced",
                granularity,
                "checkpoint",
                sub.kills,
                sub.deadline,
            )
        });
        let Ok(parsed) = parsed else {
            out.failed += 1;
            continue;
        };
        for p in portions {
            let table = preset_cluster(&p.name, PROCS).timing;
            let inst = Instance::new(p.scenarios.len() as u32, nm, PROCS);
            let Ok(g) = ctx.tr.leaf("oa_sched.grouping.portion", || {
                parsed.heuristic.grouping(inst, &table)
            }) else {
                out.failed += 1;
                continue;
            };
            let cert = ctx.tr.leaf("oa_service.admission.admit_portion", || {
                admit_portion(inst, &table, &g, &parsed.config, &parsed.plan)
            });
            let driver = ctx.tr.leaf("oa_sim.driver.new", || {
                SessionDriver::new(p.start, inst, &table, &g, &parsed.config, &parsed.plan)
            });
            let same = driver
                .ok()
                .is_some_and(|d| d.makespan().map(f64::to_bits) == p.makespan.map(f64::to_bits));
            if cert.is_err() || !same {
                out.failed += 1;
                out.notes
                    .push(format!("shadow admission of {} disagrees", sub.session));
            }
        }
    }
    ctx.tr.set_request(0);
}

/// Traced runs only: prices the five joins through a fresh `PlanMemo`,
/// as `ClusterJoin` does, to count the memo's hits and table builds.
fn shadow_memo(ctx: &mut Ctx) {
    let cfg = ServiceConfig {
        capacity: CAPACITY,
        ..ServiceConfig::default()
    };
    let mut memo = PlanMemo::new();
    let pool = Pool::serial();
    for (id, p) in PRESETS.iter().enumerate() {
        let timing = preset_cluster(p, PROCS).timing;
        ctx.tr.leaf("oa_sched.memo.performance_vector", || {
            memo.performance_vector(
                ClusterId(id as u32),
                PROCS,
                &timing,
                cfg.planning_heuristic,
                cfg.capacity,
                cfg.planning_nm,
                &pool,
            )
        });
    }
    let m = memo.stats();
    ctx.add("oa_sched.memo.hits", m.hits as f64);
    ctx.add("oa_sched.memo.misses", m.misses as f64);
    ctx.add("oa_sched.memo.dp_builds", m.dp_builds as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{FakeClock, Wall};

    #[test]
    fn generator_is_seeded_and_keeps_the_mix() {
        let a = generate(1, 1000);
        let texts = |ls: &[Line]| ls.iter().map(|l| l.text.clone()).collect::<Vec<_>>();
        assert_eq!(texts(&a), texts(&generate(1, 1000)));
        assert_ne!(texts(&a), texts(&generate(2, 1000)));
        let count = |pat: &str| a.iter().filter(|l| l.text.starts_with(pat)).count();
        assert_eq!(count("{\"Submit\""), 600);
        assert_eq!(count("{\"SubmitWorkflow\""), 50);
        assert_eq!(count("{\"Advance\":{\"to\""), 80);
        let refusals = a
            .iter()
            .filter(|l| l.expect == Expect::Rejected("CT001"))
            .count();
        assert_eq!(refusals, 12, "2% of 600 submissions miss their deadline");
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        let mut tr = Tracer::new(false, Wall::start());
        // Service takes 2 ms against a 1 ms arrival gap: each line waits
        // behind the last, and the due-time latency shows the backlog a
        // send-time measurement would hide.
        let mut clock = FakeClock::default();
        let step = open_loop(&mut clock, &mut tr, 1000.0, 5, |_, c, _| c.t += 0.002);
        let ms: Vec<f64> = step.latency.iter().map(|s| (s * 1e3).round()).collect();
        assert_eq!(ms, [2.0, 3.0, 4.0, 5.0, 6.0]);
        assert!((step.late - 0.004).abs() < 1e-12);
        assert!((step.busy - 0.010).abs() < 1e-12);

        // Below capacity the generator waits and latency is service time.
        let mut clock = FakeClock::default();
        let step = open_loop(&mut clock, &mut tr, 1000.0, 5, |_, c, _| c.t += 0.0005);
        assert!(step.latency.iter().all(|s| (s - 0.0005).abs() < 1e-12));
        assert_eq!(step.late, 0.0);
        assert!(
            (step.busy - 0.0025).abs() < 1e-12,
            "waits are not busy time"
        );
    }

    #[test]
    fn failures_are_classified_against_expected_kinds() {
        let admitted = Response::Admitted {
            session: "s".into(),
            at: 0.0,
            portions: vec![],
            predicted_finish: None,
            bound_lo: 1.0,
            bound_hi: None,
            integer_kernel: true,
            plan: vec![],
        };
        let stranded = Response::Stranded {
            session: "s".into(),
            at: 0.0,
            completed_months: 0,
        };
        let error = |code: &str| Response::Error {
            code: code.into(),
            message: String::new(),
        };
        let rejected = |code: &str| Response::Rejected {
            session: "s".into(),
            code: code.into(),
            message: String::new(),
        };
        let advanced = Response::Advanced {
            to: 1.0,
            completed: 0,
        };

        let plain = Expect::Admitted { may_strand: false };
        let kill = Expect::Admitted { may_strand: true };
        assert!(plain.met_by(std::slice::from_ref(&admitted)));
        assert!(!plain.met_by(&[admitted.clone(), stranded.clone()]));
        assert!(kill.met_by(&[admitted.clone(), stranded]));
        assert!(
            !plain.met_by(&[rejected("OA005")]),
            "capacity refusal is a failure"
        );
        assert!(Expect::Rejected("CT001").met_by(&[rejected("CT001")]));
        assert!(!Expect::Rejected("CT001").met_by(&[rejected("OA018")]));
        assert!(Expect::Error("PROTO001").met_by(&[error("PROTO001")]));
        assert!(!Expect::Error("PROTO001").met_by(&[error("PROTO003")]));
        assert!(!Expect::State.met_by(&[error("PROTO006")]));
        assert!(Expect::Advanced.met_by(std::slice::from_ref(&advanced)));
        assert!(!Expect::Advanced.met_by(&[advanced, admitted]));
        assert!(!Expect::Metrics.met_by(&[]));
    }
}
