//! The `oa` subcommands. Every command renders to a `String` so the
//! test suite can assert output without spawning processes.

use oa_platform::prelude::*;
use oa_sched::prelude::*;
use oa_sim::prelude::*;
use oa_trace::prelude::*;

use std::io::Read;

use oa_sched::read::{self, ReadError};
use oa_service::daemon::read_line_capped;
use oa_service::wire::MAX_LINE_BYTES;
use oa_workflow::chain::ExperimentShape;
use oa_workflow::ir::{classify_spec, IrClass};

use crate::args::{ArgError, Args};

/// Command-level errors.
#[derive(Debug)]
pub enum CliError {
    /// Argument problems.
    Args(ArgError),
    /// The command word is not known.
    UnknownCommand(String),
    /// A domain error (infeasible instance, unreadable file, …); a
    /// field the campaign reader refuses reads `CODE: message`.
    Domain(String),
    /// `oa analyze` found error-severity diagnostics; the payload is
    /// the fully rendered report (text or JSON). Carried as an error so
    /// the process exits nonzero, as CI expects.
    AnalysisFailed(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::UnknownCommand(c) => write!(f, "unknown command {c:?}; try `oa help`"),
            CliError::Domain(m) => write!(f, "{m}"),
            CliError::AnalysisFailed(report) => write!(f, "analysis failed\n{report}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

impl From<ReadError> for CliError {
    fn from(e: ReadError) -> Self {
        domain(e)
    }
}

/// A domain error carrying `e`'s message.
fn domain(e: impl std::fmt::Display) -> CliError {
    CliError::Domain(e.to_string())
}

/// Entry point: dispatches `argv` (without program name) to a command.
pub fn run<I: IntoIterator<Item = String>>(argv: I) -> Result<String, CliError> {
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(ArgError::NoCommand) => return Ok(help()),
        Err(e) => return Err(e.into()),
    };
    match args.command.as_str() {
        "help" => Ok(help()),
        "plan" => plan(&args),
        "sim" => sim_cmd(&args),
        "analyze" => analyze_cmd(&args),
        "audit" => audit_cmd(&args),
        "gantt" => gantt(&args),
        "grid" => grid_cmd(&args),
        "table" => table_cmd(&args),
        "campaign" => campaign(&args),
        "import" => import(&args),
        "profile" => profile_cmd(&args),
        "trace" => trace_cmd(&args),
        "dot" => dot_cmd(&args),
        "serve" => serve_cmd(&args),
        "submit" => submit_cmd(&args),
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

fn help() -> String {
    "\
oa — Ocean-Atmosphere grid scheduling (Caniou et al., 2008 reproduction)

USAGE: oa <command> [--flag value]...

COMMANDS
  plan      choose a grouping and report makespans
            --ns N --nm N --r N --cluster NAME [--heuristic H | --all] [--json]
  sim       run one campaign through the generic engine, with every knob
            --ns N --nm N --r N --cluster NAME --heuristic H
            [--policy P] [--unfused] [--recovery checkpoint|restart]
            [--kill G@T,G@T,...] [--jobs N] [--json]
            [--workflow preset|FILE.json] [--dot]
            --workflow lifts the campaign into the typed workflow IR:
            preset meshes run the legacy engine byte-identically, any
            other DAG runs the generic IR engine; --dot prints the IR
            as Graphviz instead of simulating
            [--batch SPEC.json] [--naive]
            --batch runs a mass-batch variant sweep (parameter grid ×
            Monte Carlo fault plans) with cross-variant sharing;
            --naive disables the sharing (baseline); every field of
            the spec is optional (defaults: the 10^4-variant
            reference sweep)
  analyze   statically verify a planned campaign: platform, grouping and
            schedule rules; exits nonzero on errors; --rules prints all
            25 rules (OA002..OA018, ND001..ND007, CT001..CT002)
            --ns N --nm N --r N --cluster NAME --heuristic H [--json]
            [--file SCHEDULE.json] [--bandwidth MB/s --latency S] [--rules]
            [--jobs N]
  audit     static analysis beyond one campaign: source determinism
            audit (ND001..ND007) and the campaign certifier (CT001..CT002)
            audit [scan]    [--root DIR] [--allow FILE] [--json] [--rules]
            audit certify   --ns N --nm N --r N --cluster NAME --heuristic H
                            [--policy P] [--unfused] [--recovery R]
                            [--kill G@T,...] [--matrix] [--json]
  gantt     render a schedule as ASCII art
            --ns N --nm N --r N --heuristic H --width N [--per-proc]
  table     print a cluster's timing table
            --cluster NAME
  grid      plan + execute a campaign across the preset grid
            --ns N --nm N --clusters N --resources N --heuristic H [--staging]
  campaign  run a campaign through the daemon's six-step grid protocol
            --ns N --nm N --clusters N --resources N --heuristic H
  import    parse a benchmark file and plan on the measured grid
            --file PATH --ns N --nm N --heuristic H
  profile   occupancy profile of a schedule (busy processors over time)
            --ns N --nm N --r N --heuristic H
  trace     record and export campaign event traces
            trace record    --ns N --nm N --r N --cluster NAME
                            --heuristic H [--policy P] [--out TRACE.jsonl]
                            [--jobs N]
            trace export    [--file TRACE.jsonl | campaign flags]
                            [--format chrome|gantt|jsonl] [--width N]
            trace summarize [--file TRACE.jsonl | campaign flags]
  dot       Graphviz DOT of the application DAG (pipe into `dot -Tsvg`)
            --ns N --nm N [--fused]
  serve     run the campaign service daemon (line-delimited JSON; see
            docs/PROTOCOL.md and docs/OPERATIONS.md)
            --script FILE | --pipe | --socket PATH
            [--capacity N] [--planning-nm N] [--jobs N]
  submit    print one service Submit request line (pipe into `oa serve`)
            --session NAME --ns N --nm N [--heuristic H] [--policy P]
            [--unfused] [--recovery checkpoint|restart] [--kill G@T,...]
            [--deadline SECONDS]
  help      this text

HEURISTICS: basic, redistribute (Improvement 1), nopost (Improvement 2),
            knapsack (Improvement 3, default), knapsack-greedy
POLICIES:   least-advanced (paper default), round-robin, most-advanced
CLUSTERS:   reference (default), sagittaire, capricorne, chinqchint,
            grillon, grelon
JOBS:       --jobs N sizes the deterministic worker pool (default: the
            OA_JOBS environment variable, then available parallelism);
            any N up to 256 produces bit-identical output
ERRORS:     a refused value exits 2 as `oa: CODE: message` (docs/PROTOCOL.md):
            OA002 empty shape, OA016 under 4 processors, PROTO003 unknown
            name or bad --kill, PROTO011 over a cap (NS × NM 1048576 months,
            1024 processors, --jobs 256, --width 1000, 16 MiB spec files
            and trace lines)
"
    .to_string()
}

fn heuristic_of(args: &Args) -> Result<Heuristic, CliError> {
    Ok(read::heuristic(&args.str_or("heuristic", "knapsack"))?)
}

fn granularity_of(args: &Args) -> Granularity {
    if args.switch("unfused") {
        Granularity::Unfused
    } else {
        Granularity::Fused
    }
}

/// The engine configuration of `--policy` and `--recovery` at
/// `granularity`.
fn config_of(args: &Args, granularity: Granularity) -> Result<CampaignConfig, CliError> {
    Ok(CampaignConfig {
        policy: read::policy(&args.str_or("policy", "least-advanced"))?,
        granularity,
        recovery: read::recovery(&args.str_or("recovery", "checkpoint"))?,
    })
}

/// Reads `--kill G@T,G@T,...` into a [`FaultPlan`].
fn fault_plan_of(args: &Args) -> Result<FaultPlan, CliError> {
    Ok(read::kills(args.str_opt("kill").unwrap_or(""))?)
}

/// Resolves the worker pool for commands that accept `--jobs N`:
/// explicit flag, then the `OA_JOBS` environment variable, then the
/// machine's available parallelism, refused over `oa_par::MAX_JOBS`.
/// Parallel runs produce bit-identical output to `--jobs 1`.
fn pool_of(args: &Args) -> Result<oa_par::Pool, CliError> {
    Ok(oa_par::Pool::new(read::jobs(args.jobs_opt()?)?))
}

/// Reads the campaign shape `--ns`/`--nm` (defaulting to `ns`/`nm`).
fn shape_of(args: &Args, ns: u32, nm: u32) -> Result<(u32, u32), CliError> {
    Ok(read::shape(args.u32_or("ns", ns)?, args.u32_or("nm", nm)?)?)
}

/// Reads the preset cluster `name` on `r` processors.
fn cluster_of(name: &str, r: u32) -> Result<Cluster, CliError> {
    Ok(read::cluster(name, name, r)?)
}

/// Reads `--cluster` (default `reference`) on `--r` processors
/// (default `r`).
fn campaign_cluster(args: &Args, r: u32) -> Result<Cluster, CliError> {
    cluster_of(&args.str_or("cluster", "reference"), args.u32_or("r", r)?)
}

/// The widest chart `--width` may ask for: wider than any terminal,
/// and a bound on the rows the renderers allocate.
const MAX_WIDTH: u32 = 1000;

/// Reads the `--width` of a Gantt chart; `PROTO011` over [`MAX_WIDTH`].
fn width_of(args: &Args) -> Result<usize, CliError> {
    let width = args.u32_or("width", 76)?;
    if width > MAX_WIDTH {
        let message = format!("--width {width} is over the cap of {MAX_WIDTH} columns");
        return Err(ReadError::new(read::OVER_SIZE_CAP, message).into());
    }
    Ok(width as usize)
}

/// Reads a spec file (`--workflow`, `--batch`, `oa import --file`,
/// `oa audit --allow`): at most [`MAX_LINE_BYTES`], the size of the one
/// request line that carries the same spec to the daemon, and
/// `PROTO011` past it.
fn read_spec(path: &str) -> Result<String, CliError> {
    let cannot = |e: &dyn std::fmt::Display| domain(format!("cannot read {path}: {e}"));
    let mut bytes = Vec::new();
    std::fs::File::open(path)
        .and_then(|file| file.take(MAX_LINE_BYTES as u64 + 1).read_to_end(&mut bytes))
        .map_err(|e| cannot(&e))?;
    // The length first: the cut may split a character.
    if bytes.len() > MAX_LINE_BYTES {
        let message = format!("{path} is over the cap of {MAX_LINE_BYTES} bytes");
        return Err(ReadError::new(read::OVER_SIZE_CAP, message).into());
    }
    String::from_utf8(bytes).map_err(|e| cannot(&e))
}

/// Reads a JSON spec file through [`read_spec`].
fn read_json(path: &str) -> Result<serde_json::Value, CliError> {
    serde_json::from_str(&read_spec(path)?)
        .map_err(|e| CliError::Domain(format!("{path} is not JSON: {e}")))
}

fn plan(args: &Args) -> Result<String, CliError> {
    args.check_known(&["ns", "nm", "r", "cluster", "heuristic", "all", "json"])?;
    let (ns, nm) = shape_of(args, 10, 1800)?;
    let cluster = campaign_cluster(args, 53)?;
    let r = cluster.resources;
    let inst = Instance::new(ns, nm, r);

    let heuristics: Vec<Heuristic> = if args.switch("all") {
        Heuristic::PAPER.to_vec()
    } else {
        vec![heuristic_of(args)?]
    };

    let mut out = format!(
        "cluster {} · R = {r} · NS = {ns} · NM = {nm}\n",
        cluster.name
    );
    let mut rows = Vec::new();
    for h in heuristics {
        let grouping = h.grouping(inst, &cluster.timing).map_err(domain)?;
        let est = estimate(inst, &cluster.timing, &grouping).map_err(domain)?;
        out.push_str(&format!(
            "{:<26} {:<26} {:>10.1} h  util {:>5.1}%\n",
            h.label(),
            grouping.to_string(),
            est.makespan / 3600.0,
            est.utilization(inst) * 100.0
        ));
        rows.push((h.label(), grouping.to_string(), est.makespan));
    }
    if args.switch("json") {
        let json: Vec<serde_json::Value> = rows
            .iter()
            .map(|(h, g, m)| {
                serde_json::json!({ "heuristic": h, "grouping": g, "makespan_secs": m })
            })
            .collect();
        out.push_str(&serde_json::to_string_pretty(&json).expect("serializable"));
        out.push('\n');
    }
    Ok(out)
}

/// Builds the workflow IR behind `oa sim --workflow SPEC`: the literal
/// `preset` lowers the ocean-atmosphere mesh of `shape` (fused unless
/// `--unfused`); anything else is a path to a JSON workflow spec in
/// the `oa_workflow::ir::from_value` format, whose preset header's
/// shape is read before its mesh is lowered.
fn workflow_of(
    args: &Args,
    spec: &str,
    shape: ExperimentShape,
) -> Result<oa_workflow::ir::WorkflowIr, CliError> {
    if spec == "preset" {
        return Ok(if args.switch("unfused") {
            oa_workflow::ir::lower_experiment(shape)
        } else {
            oa_workflow::ir::lower_fused(shape)
        });
    }
    let value = read_json(spec)?;
    // Classifying a preset-form spec reads its header alone.
    if value.get("preset").is_some() {
        if let Ok(IrClass::FusedMesh(s) | IrClass::UnfusedMesh(s)) = classify_spec(&value) {
            read::shape(s.scenarios, s.months)?;
        }
    }
    oa_workflow::ir::from_value(&value).map_err(|e| CliError::Domain(format!("{spec}: {e}")))
}

/// Runs a general (non-preset) workflow through the IR engine and
/// renders the schedule.
fn sim_general(
    args: &Args,
    ir: &oa_workflow::ir::WorkflowIr,
    cluster: &Cluster,
    r: u32,
    h: Heuristic,
    config: &CampaignConfig,
    plan: &FaultPlan,
) -> Result<String, CliError> {
    let outcome =
        simulate_ir(ir, &cluster.timing, r, h, config, plan, &mut NullTracer).map_err(domain)?;
    let schedule = match outcome {
        IrOutcome::Generic(s) => s,
        IrOutcome::Campaign(_) => unreachable!("general workflows stay on the IR engine"),
    };
    if args.switch("json") {
        let mut json =
            serde_json::to_string_pretty(&schedule).expect("IR schedules are serializable");
        json.push('\n');
        return Ok(json);
    }
    Ok(format!(
        "workflow on {}: {} task(s), {} edge(s), R = {r}\n\
         general DAG: scheduled by the IR engine (bottom-level priority)\n\
         completed: makespan {:.1} h ({:.0} s), {} record(s)\n",
        cluster.name,
        ir.node_count(),
        ir.edge_count(),
        schedule.makespan / 3600.0,
        schedule.makespan,
        schedule.records.len(),
    ))
}

/// `oa sim --batch spec.json`: the mass-batch variant engine.
fn sim_batch(args: &Args, path: &str) -> Result<String, CliError> {
    let spec = BatchSpec::from_json(&read_json(path)?).map_err(domain)?;
    let pool = pool_of(args)?;
    let naive = args.switch("naive");
    let report = if naive {
        run_naive(&spec, &pool)
    } else {
        run_batch(&spec, &pool)
    }
    .map_err(domain)?;
    let s = report.summary();
    if args.switch("json") {
        #[derive(serde::Serialize)]
        struct BatchCliReport {
            engine: String,
            shapes: u64,
            heads: u64,
            memo: MemoStats,
            summary: SweepSummary,
        }
        let doc = BatchCliReport {
            engine: if naive { "naive" } else { "batch" }.to_string(),
            shapes: report.shapes as u64,
            heads: report.heads as u64,
            memo: report.memo,
            summary: s,
        };
        let mut json = serde_json::to_string_pretty(&doc).expect("sweep reports serialize");
        json.push('\n');
        return Ok(json);
    }
    let mut out = format!(
        "batch sweep {path}: {} shape(s), {} variant(s)\n\
         engine: {}, {} shared head(s), {} jobs\n\
         completed {}, stranded {}\n",
        report.shapes,
        s.variants,
        if naive {
            "naive per-variant loop"
        } else {
            "cross-variant sharing"
        },
        report.heads,
        pool.jobs(),
        s.completed,
        s.stranded,
    );
    if s.completed > 0 {
        out.push_str(&format!(
            "makespan min/mean/max: {:.1} / {:.1} / {:.1} h\n",
            s.makespan_min / 3600.0,
            s.makespan_mean / 3600.0,
            s.makespan_max / 3600.0,
        ));
    }
    out.push_str(&format!(
        "damage: {} month(s) lost, {:.0} proc·s destroyed\n\
         memo: {} hit(s), {} miss(es), {} DP build(s)\n\
         checksum {}\n",
        s.months_lost_total,
        s.lost_proc_secs_total,
        report.memo.hits,
        report.memo.misses,
        report.memo.dp_builds,
        s.checksum,
    ));
    Ok(out)
}

fn sim_cmd(args: &Args) -> Result<String, CliError> {
    args.check_known(&[
        "ns",
        "nm",
        "r",
        "cluster",
        "heuristic",
        "policy",
        "recovery",
        "kill",
        "jobs",
        "unfused",
        "json",
        "workflow",
        "dot",
        "batch",
        "naive",
    ])?;
    if let Some(path) = args.str_opt("batch") {
        return sim_batch(args, path);
    }
    let (mut ns, mut nm) = shape_of(args, 10, 120)?;
    let cluster = campaign_cluster(args, 53)?;
    let r = cluster.resources;
    let h = heuristic_of(args)?;
    let pool = pool_of(args)?;
    let mut granularity = granularity_of(args);
    let plan = fault_plan_of(args)?;

    // The IR front end: `--workflow` (or bare `--dot`) lifts the
    // campaign into the typed workflow IR first. Recognized preset
    // meshes fall through to the legacy engine path below with the
    // shape read off the mesh — byte-identical output by construction
    // — while general DAGs run on the IR engine.
    if args.str_opt("workflow").is_some() || args.switch("dot") {
        let spec = args.str_opt("workflow").unwrap_or("preset");
        let ir = workflow_of(args, spec, ExperimentShape::new(ns, nm))?;
        if args.switch("dot") {
            return Ok(oa_workflow::dot::ir_dot(&ir, "workflow"));
        }
        match oa_workflow::ir::recognize(&ir) {
            IrClass::FusedMesh(shape) => {
                (ns, nm) = (shape.scenarios, shape.months);
                granularity = Granularity::Fused;
            }
            IrClass::UnfusedMesh(shape) => {
                (ns, nm) = (shape.scenarios, shape.months);
                granularity = Granularity::Unfused;
            }
            IrClass::General => {
                let config = config_of(args, granularity)?;
                return sim_general(args, &ir, &cluster, r, h, &config, &plan);
            }
        }
    }

    let config = config_of(args, granularity)?;
    let inst = Instance::new(ns, nm, r);
    let grouping = h
        .grouping_with(inst, &cluster.timing, &pool)
        .map_err(domain)?;

    // Pre-flight the configuration (OA018) so a malformed fault plan
    // fails as a diagnostic report, not as the engine's panic.
    let lint = oa_analyze::scheduling::check_campaign(&config, &plan, &grouping);
    let lint = oa_analyze::Report::from_diagnostics(lint);
    if lint.has_errors() {
        return Err(CliError::AnalysisFailed(lint.render_text()));
    }

    let (outcome, kernel) = simulate_campaign_kernel(
        inst,
        &cluster.timing,
        &grouping,
        &config,
        &plan,
        KernelOpts::default(),
        &mut NullTracer,
    )
    .map_err(domain)?;

    if args.switch("json") {
        let mut json =
            serde_json::to_string_pretty(&outcome).expect("campaign outcomes are serializable");
        json.push('\n');
        return Ok(json);
    }
    let yes_no = |b: bool| if b { "yes" } else { "no" };
    let mut out = format!(
        "campaign on {}: NS = {ns}, NM = {nm}, R = {r}, heuristic {}\n\
         engine: policy {}, {} granularity, {} kill(s)\n\
         kernel: integer time {}, cycles replayed {} main / {} post, \
         closed-form drain {}, posts counted {}\n\
         grouping {grouping}\n",
        cluster.name,
        h.label(),
        config.policy,
        config.granularity.label(),
        plan.failures.len(),
        yes_no(kernel.integer_time),
        kernel.main_cycles_skipped,
        kernel.post_cycles_skipped,
        yes_no(kernel.drain_closed_form),
        kernel.posts_closed_form,
    );
    for d in &lint.diagnostics {
        out.push_str(&format!("{}\n", d.render()));
    }
    match outcome {
        CampaignOutcome::Completed(run) => {
            out.push_str(&format!(
                "completed: makespan {:.1} h ({:.0} s), main finish {:.0} s, post finish {:.0} s\n",
                run.makespan / 3600.0,
                run.makespan,
                run.main_finish,
                run.post_finish
            ));
            if !plan.is_empty() {
                out.push_str(&format!(
                    "damage: {} month(s) lost, {:.0} proc·s destroyed\n",
                    run.months_lost, run.lost_proc_secs
                ));
            }
        }
        CampaignOutcome::Stranded { completed_months } => {
            out.push_str(&format!(
                "stranded: every group died with work left; {completed_months} month(s) \
                 checkpointed before the cluster went dark\n"
            ));
        }
    }
    Ok(out)
}

fn analyze_cmd(args: &Args) -> Result<String, CliError> {
    args.check_known(&[
        "ns",
        "nm",
        "r",
        "cluster",
        "heuristic",
        "json",
        "rules",
        "file",
        "bandwidth",
        "latency",
        "jobs",
    ])?;
    if args.switch("rules") {
        return Ok(oa_analyze::render_catalog());
    }
    let mut report = oa_analyze::Report::new();
    let scope: String;

    if let Some(path) = args.str_opt("file") {
        // Analyze a saved schedule. It is read without validation,
        // which would stop at the first defect: the whole point here is
        // to load a possibly-corrupted schedule and report every defect.
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Domain(format!("cannot read {path}: {e}")))?;
        let schedule: Schedule = serde_json::from_str(&text)
            .map_err(|e| CliError::Domain(format!("{path} is not a schedule: {e}")))?;
        // The checks size their tables by the schedule's own instance,
        // so it passes the reader's shape and processor caps first.
        read::shape(schedule.instance.ns, schedule.instance.nm)?;
        read::procs(schedule.instance.r)?;
        scope = format!(
            "schedule {path}: NS = {}, NM = {}, R = {}, {} record(s)\n",
            schedule.instance.ns,
            schedule.instance.nm,
            schedule.instance.r,
            schedule.records.len()
        );
        report.extend(schedule.analyze().diagnostics);
    } else {
        // Analyze a planned campaign end to end, one layer at a time.
        // Its shape has passed the reader (OA002) and its mesh is the
        // preset lowering, so the layers start at the platform.
        let (ns, nm) = shape_of(args, 10, 1800)?;
        let cluster = campaign_cluster(args, 53)?;
        let r = cluster.resources;
        let h = heuristic_of(args)?;
        let pool = pool_of(args)?;
        let inst = Instance::new(ns, nm, r);
        scope = format!(
            "campaign on {}: NS = {ns}, NM = {nm}, R = {r}, heuristic {}\n",
            cluster.name,
            h.label()
        );

        report.extend(oa_analyze::platform::check_cluster(&cluster));

        let grouping = h
            .grouping_with(inst, &cluster.timing, &pool)
            .map_err(domain)?;
        report.extend(oa_analyze::scheduling::check_grouping(
            inst,
            &cluster.timing,
            &grouping,
        ));

        let link = Link::gigabit();
        let bandwidth = args.f64_or("bandwidth", link.bandwidth_mbps)?;
        let latency = args.f64_or("latency", link.latency_secs)?;
        // The strictest month: the largest group computes a month the
        // fastest, so its duration bounds how long a hand-off may take.
        let month_secs = cluster.timing.main_secs(grouping.groups()[0]);
        report.extend(oa_analyze::platform::check_bandwidth(
            bandwidth, latency, month_secs,
        ));

        let schedule = execute_default(inst, &cluster.timing, &grouping).map_err(domain)?;
        report.extend(schedule.analyze().diagnostics);
    }

    finish_report(&report, &scope, args.switch("json"))
}

/// Shared tail of the diagnostic commands (`oa analyze`, `oa audit`):
/// render through the one [`oa_analyze::Report::render`] path and fail
/// the process when error-severity findings exist, so CI sees exit 1.
fn finish_report(report: &oa_analyze::Report, scope: &str, json: bool) -> Result<String, CliError> {
    let rendered = report.render(scope, json);
    if report.has_errors() {
        Err(CliError::AnalysisFailed(rendered))
    } else {
        Ok(rendered)
    }
}

fn audit_cmd(args: &Args) -> Result<String, CliError> {
    match args.verb.as_deref().unwrap_or("scan") {
        "scan" => audit_scan(args),
        "certify" => audit_certify(args),
        other => Err(CliError::Domain(format!(
            "unknown audit verb {other:?}; try scan or certify"
        ))),
    }
}

/// `oa audit [scan]`: the whole-workspace determinism audit. Scans the
/// Rust sources under `--root` (default `.`) for the ND rules, filtered
/// through the allowlist at `--allow` (default `<root>/audit.allow`;
/// a missing default is simply an empty list, a missing explicit path
/// is an error).
fn audit_scan(args: &Args) -> Result<String, CliError> {
    args.check_known(&["root", "allow", "json", "rules"])?;
    if args.switch("rules") {
        return Ok(oa_analyze::render_catalog());
    }
    let root = std::path::PathBuf::from(args.str_or("root", "."));
    let allow_path = args
        .str_opt("allow")
        .map_or_else(|| root.join("audit.allow"), std::path::PathBuf::from);
    let allow = if allow_path.is_file() {
        let text = read_spec(&allow_path.to_string_lossy())?;
        oa_analyze::audit::allow::Allowlist::parse(&text).map_err(CliError::Domain)?
    } else if args.str_opt("allow").is_some() {
        return Err(CliError::Domain(format!(
            "allowlist {} does not exist",
            allow_path.display()
        )));
    } else {
        oa_analyze::audit::allow::Allowlist::empty()
    };
    let outcome = oa_analyze::audit::audit_workspace(&root, &allow).map_err(|e| {
        CliError::Domain(format!("audit walk failed under {}: {e}", root.display()))
    })?;
    if outcome.files_scanned == 0 {
        return Err(CliError::Domain(format!(
            "no Rust sources under {} — is --root pointing at a workspace?",
            root.display()
        )));
    }
    finish_report(
        &outcome.report,
        &outcome.scope_line(&root),
        args.switch("json"),
    )
}

/// One certifier cross-check: certify statically, simulate for real,
/// and report any `CT001`/`CT002` disagreement. Returns the findings
/// plus a rendered result row.
fn certify_one(
    inst: Instance,
    cluster: &Cluster,
    h: Heuristic,
    config: &CampaignConfig,
    plan: &FaultPlan,
) -> Result<(oa_analyze::Report, String, serde_json::Value), CliError> {
    let grouping = h.grouping(inst, &cluster.timing).map_err(domain)?;
    let mut report = oa_analyze::Report::from_diagnostics(oa_analyze::scheduling::check_campaign(
        config, plan, &grouping,
    ));
    if report.has_errors() {
        return Err(CliError::AnalysisFailed(report.render_text()));
    }
    let cert = oa_analyze::certify::certify(inst, &cluster.timing, &grouping, config, plan);
    let opts = KernelOpts::default();
    let (outcome, kernel) = simulate_campaign_kernel(
        inst,
        &cluster.timing,
        &grouping,
        config,
        plan,
        opts,
        &mut NullTracer,
    )
    .map_err(domain)?;
    let makespan = outcome.completed().map(|run| run.makespan);
    report.extend(oa_analyze::certify::verify(&cert, makespan, kernel.integer_time).diagnostics);

    let simulated = makespan.map_or_else(|| "stranded".to_string(), |m| format!("{m:.0} s"));
    let row = format!(
        "{:<11} {:<14} {:<7} bounds {}  simulated {simulated}  tightness {}  kernel {}\n",
        cluster.name,
        config.policy.to_string(),
        config.granularity.label(),
        cert.bounds,
        cert.tightness()
            .map_or_else(|| "—".to_string(), |t| format!("{t:.2}")),
        if cert.integer_kernel { "int" } else { "float" },
    );
    let json = serde_json::json!({
        "cluster": cluster.name,
        "policy": config.policy.to_string(),
        "granularity": config.granularity.label(),
        "bound_lo_secs": cert.bounds.lo,
        "bound_hi_secs": if cert.bounds.is_bounded() { Some(cert.bounds.hi) } else { None },
        "tightness": cert.tightness(),
        "makespan_secs": makespan,
        "integer_kernel": cert.integer_kernel,
        "faults": cert.fault_count,
    });
    Ok((report, row, json))
}

/// `oa audit certify`: static makespan bounds and kernel verdicts,
/// cross-checked against real engine runs. `--matrix` sweeps every
/// preset cluster × policy × granularity instead of one configuration.
fn audit_certify(args: &Args) -> Result<String, CliError> {
    args.check_known(&[
        "ns",
        "nm",
        "r",
        "cluster",
        "heuristic",
        "policy",
        "recovery",
        "kill",
        "unfused",
        "json",
        "matrix",
    ])?;
    let (ns, nm) = shape_of(args, 10, 120)?;
    let h = heuristic_of(args)?;
    let plan = fault_plan_of(args)?;

    let cells: Vec<(Cluster, CampaignConfig)> = if args.switch("matrix") {
        if args.str_opt("policy").is_some() || args.switch("unfused") {
            return Err(CliError::Domain(
                "--matrix sweeps every policy and granularity; drop --policy/--unfused".into(),
            ));
        }
        let r = args.u32_or("r", 53)?;
        let names =
            std::iter::once("reference").chain(PRESET_CLUSTERS.iter().map(|(n, _, _, _)| *n));
        let mut cells = Vec::new();
        for name in names {
            for policy in ScenarioPolicy::ALL {
                for granularity in [Granularity::Fused, Granularity::Unfused] {
                    let config = CampaignConfig {
                        policy,
                        ..config_of(args, granularity)?
                    };
                    cells.push((cluster_of(name, r)?, config));
                }
            }
        }
        cells
    } else {
        vec![(
            campaign_cluster(args, 53)?,
            config_of(args, granularity_of(args))?,
        )]
    };
    let r = cells[0].0.resources;
    let inst = Instance::new(ns, nm, r);

    let mut report = oa_analyze::Report::new();
    let mut scope = format!(
        "certify: NS = {ns}, NM = {nm}, R = {r}, heuristic {}, {} kill(s), {} configuration(s)\n",
        h.label(),
        plan.failures.len(),
        cells.len(),
    );
    let mut rows = Vec::new();
    for (cluster, config) in &cells {
        let (cell_report, row, json) = certify_one(inst, cluster, h, config, &plan)?;
        report.extend(cell_report.diagnostics);
        scope.push_str(&row);
        rows.push(json);
    }
    if args.switch("json") {
        let mut out = serde_json::to_string_pretty(&serde_json::json!({
            "cells": rows,
            "findings": report.error_count(),
        }))
        .expect("serializable");
        out.push('\n');
        if report.has_errors() {
            out.push_str(&report.render("", false));
            return Err(CliError::AnalysisFailed(out));
        }
        return Ok(out);
    }
    finish_report(&report, &scope, false)
}

fn gantt(args: &Args) -> Result<String, CliError> {
    args.check_known(&["ns", "nm", "r", "cluster", "heuristic", "width", "per-proc"])?;
    let (ns, nm) = shape_of(args, 4, 12)?;
    let cluster = campaign_cluster(args, 26)?;
    let width = width_of(args)?;
    let h = heuristic_of(args)?;
    let inst = Instance::new(ns, nm, cluster.resources);
    let grouping = h.grouping(inst, &cluster.timing).map_err(domain)?;
    let schedule = execute_default(inst, &cluster.timing, &grouping).map_err(domain)?;
    schedule.validate().map_err(domain)?;
    Ok(format!(
        "{h} → {grouping}\n{}",
        render(
            &schedule,
            GanttOptions {
                width,
                by_group: !args.switch("per-proc")
            }
        ),
        h = h.label()
    ))
}

fn table_cmd(args: &Args) -> Result<String, CliError> {
    args.check_known(&["cluster"])?;
    let cluster = cluster_of(&args.str_or("cluster", "reference"), 16)?;
    let mut out = format!("timing table of {} (seconds)\n", cluster.name);
    out.push_str("  G      T[G]\n");
    for g in 4..=11u32 {
        out.push_str(&format!("{g:>3} {:>9.1}\n", cluster.timing.main_secs(g)));
    }
    out.push_str(&format!("post {:>8.1}\n", cluster.timing.post_secs()));
    Ok(out)
}

/// The first `clusters` preset clusters, each on `resources`
/// processors.
fn preset_grid(clusters: u32, resources: u32) -> Result<Grid, CliError> {
    if clusters == 0 || clusters > PRESET_CLUSTERS.len() as u32 {
        return Err(CliError::Domain(format!(
            "--clusters must be 1..={}, got {clusters}",
            PRESET_CLUSTERS.len()
        )));
    }
    let clusters = PRESET_CLUSTERS[..clusters as usize]
        .iter()
        .map(|(name, ..)| cluster_of(name, resources))
        .collect::<Result<_, _>>()?;
    Ok(Grid::from_clusters(clusters))
}

fn grid_cmd(args: &Args) -> Result<String, CliError> {
    args.check_known(&["ns", "nm", "clusters", "resources", "heuristic", "staging"])?;
    let (ns, nm) = shape_of(args, 10, 1800)?;
    let clusters = args.u32_or("clusters", 5)?;
    let resources = args.u32_or("resources", 30)?;
    let h = heuristic_of(args)?;
    let grid = preset_grid(clusters, resources)?;

    let config = GridConfig {
        staging: args.switch("staging").then(|| Staging {
            links: vec![Link::gigabit(); grid.len()],
            model: StagingModel::default(),
        }),
        ..GridConfig::default()
    };
    let outcome = run_grid(&grid, h, ns, nm, &config, &mut NullTracer).map_err(domain)?;

    let mut out = format!(
        "grid of {clusters} × {resources} processors · {} · NS = {ns} · NM = {nm}\n",
        h.label()
    );
    for c in &outcome.clusters {
        out.push_str(&format!(
            "  {:<12} scenarios {:?} → {:.1} h\n",
            grid.cluster(c.cluster).name,
            c.scenarios,
            c.makespan() / 3600.0
        ));
    }
    out.push_str(&format!(
        "grid makespan: {:.1} h ({:.0} s)\n",
        outcome.makespan / 3600.0,
        outcome.makespan
    ));
    Ok(out)
}

fn campaign(args: &Args) -> Result<String, CliError> {
    args.check_known(&["ns", "nm", "clusters", "resources", "heuristic"])?;
    let (ns, nm) = shape_of(args, 10, 120)?;
    let clusters = args.u32_or("clusters", 5)?;
    let resources = args.u32_or("resources", 30)?;
    let h = heuristic_of(args)?;
    let grid = preset_grid(clusters, resources)?;

    let jobs = read::jobs(None)?;
    let report = oa_service::protocol::run_protocol(&grid, h, ns, nm, jobs).map_err(domain)?;
    let mut out = format!("campaign #{} through the daemon:\n", report.request);
    for e in &report.trace {
        out.push_str(&format!("  {e:?}\n"));
    }
    for r in &report.reports {
        out.push_str(&format!(
            "  {:<12} {} scenario(s)  {}  {:.1} h\n",
            grid.cluster(r.cluster).name,
            r.scenarios.len(),
            r.grouping,
            r.makespan / 3600.0
        ));
    }
    out.push_str(&format!(
        "grid makespan: {:.1} h ({:.0} s)\n",
        report.makespan / 3600.0,
        report.makespan
    ));
    Ok(out)
}

fn import(args: &Args) -> Result<String, CliError> {
    args.check_known(&["file", "ns", "nm", "heuristic"])?;
    let path = args
        .str_opt("file")
        .ok_or_else(|| domain("--file is required"))?;
    let (ns, nm) = shape_of(args, 10, 120)?;
    let h = heuristic_of(args)?;
    // Every stanza's processors pass the reader's range before any
    // planning.
    let grid = parse_grid(&read_spec(path)?).map_err(|e| match e {
        ImportError::BadTable {
            cluster,
            problem: StanzaProblem::Procs(procs),
        } => ReadError::procs(&cluster, procs).into(),
        e => CliError::Domain(e.to_string()),
    })?;

    let mut out = format!("imported {} cluster(s) from {path}\n", grid.len());
    for (_, c) in grid.iter() {
        out.push_str(&format!(
            "  {:<12} {:>4} procs  T[11] = {:.0} s\n",
            c.name,
            c.resources,
            c.timing.main_secs(11)
        ));
    }
    let outcome =
        run_grid(&grid, h, ns, nm, &GridConfig::default(), &mut NullTracer).map_err(domain)?;
    out.push_str(&format!(
        "campaign NS = {ns}, NM = {nm} via {}: makespan {:.1} h\n",
        h.label(),
        outcome.makespan / 3600.0
    ));
    Ok(out)
}

fn profile_cmd(args: &Args) -> Result<String, CliError> {
    args.check_known(&["ns", "nm", "r", "cluster", "heuristic"])?;
    let (ns, nm) = shape_of(args, 10, 24)?;
    let cluster = campaign_cluster(args, 53)?;
    let r = cluster.resources;
    let h = heuristic_of(args)?;
    let inst = Instance::new(ns, nm, r);
    let grouping = h.grouping(inst, &cluster.timing).map_err(domain)?;
    let schedule = execute_default(inst, &cluster.timing, &grouping).map_err(domain)?;
    let p = oa_sim::profile::profile(&schedule);
    let mut out = format!(
        "occupancy of {} on {} procs (makespan {:.1} h)\n",
        h.label(),
        r,
        schedule.makespan / 3600.0
    );
    out.push_str(&format!(
        "mean busy {:.1} / {r}  peak {}  idle {:.0} proc·h\n",
        p.mean_busy(),
        p.peak_busy(),
        p.idle_proc_secs() / 3600.0
    ));
    // A coarse textual histogram: 10 buckets over the horizon.
    let horizon = schedule.makespan.max(1e-9);
    out.push_str("time-bucket occupancy (mains+posts, % of R):\n");
    for b in 0..10 {
        let (lo, hi) = (horizon * b as f64 / 10.0, horizon * (b as f64 + 1.0) / 10.0);
        let mut busy = 0.0;
        for s in &p.steps {
            let overlap = (s.end.min(hi) - s.start.max(lo)).max(0.0);
            busy += s.busy() as f64 * overlap;
        }
        let pct = busy / ((hi - lo) * r as f64) * 100.0;
        let bar = "#".repeat((pct / 2.5) as usize);
        out.push_str(&format!("{b:>3}0% {pct:>5.1}% |{bar}\n"));
    }
    Ok(out)
}

/// Campaign flags shared by every `oa trace` verb.
const TRACE_CAMPAIGN_FLAGS: &[&str] = &["ns", "nm", "r", "cluster", "heuristic", "policy", "jobs"];

/// Runs the campaign described by the flags with a buffering tracer
/// and returns a scope line plus the recorded event stream.
fn trace_campaign(args: &Args) -> Result<(String, Vec<TraceEvent>), CliError> {
    let (ns, nm) = shape_of(args, 10, 120)?;
    let cluster = campaign_cluster(args, 53)?;
    let r = cluster.resources;
    let h = heuristic_of(args)?;
    let pool = pool_of(args)?;
    let inst = Instance::new(ns, nm, r);
    let grouping = h
        .grouping_with(inst, &cluster.timing, &pool)
        .map_err(domain)?;
    let mut sink = VecTracer::new();
    simulate_campaign(
        inst,
        &cluster.timing,
        &grouping,
        &config_of(args, Granularity::Fused)?,
        &FaultPlan::none(),
        &mut sink,
    )
    .map_err(domain)?;
    let scope = format!(
        "campaign on {}: NS = {ns}, NM = {nm}, R = {r}, heuristic {}\n",
        cluster.name,
        h.label()
    );
    Ok((scope, sink.into_events()))
}

/// Loads a recorded trace if `--file` was given, else records one by
/// running the campaign described by the flags.
fn trace_events_from(args: &Args) -> Result<(String, Vec<TraceEvent>), CliError> {
    if let Some(path) = args.str_opt("file") {
        let events = read_trace(path)?;
        Ok((format!("trace {path}: {} event(s)\n", events.len()), events))
    } else {
        trace_campaign(args)
    }
}

/// Reads a JSON Lines trace line by line through the daemon's capped
/// line reader: a line over [`MAX_LINE_BYTES`] is `PROTO011`, refused
/// without being buffered. Blank lines are skipped. Each read may take
/// one byte past the cap: a line within it fits with its `\n`, and a
/// longer one is refused before the rest of it is read.
fn read_trace(path: &str) -> Result<Vec<TraceEvent>, CliError> {
    let cannot = |e: &dyn std::fmt::Display| domain(format!("cannot read {path}: {e}"));
    let file = std::fs::File::open(path).map_err(|e| cannot(&e))?;
    let mut input = std::io::BufReader::new(file);
    let (mut line, mut events) = (Vec::new(), Vec::new());
    let cap = MAX_LINE_BYTES as u64 + 1;
    while let Some(over) =
        read_line_capped(&mut (&mut input).take(cap), &mut line).map_err(|e| cannot(&e))?
    {
        if over {
            let message = format!("{path} has a line over the cap of {MAX_LINE_BYTES} bytes");
            return Err(ReadError::new(read::OVER_SIZE_CAP, message).into());
        }
        let text = std::str::from_utf8(&line).map_err(|e| cannot(&e))?;
        if !text.trim().is_empty() {
            events.push(serde_json::from_str(text).map_err(|e| domain(format!("{path}: {e}")))?);
        }
    }
    Ok(events)
}

/// Serializes events as JSON Lines, one compact object per line.
fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&serde_json::to_string(ev).expect("events are serializable"));
        out.push('\n');
    }
    out
}

fn trace_cmd(args: &Args) -> Result<String, CliError> {
    match args.verb.as_deref().unwrap_or("summarize") {
        "record" => trace_record(args),
        "export" => trace_export(args),
        "summarize" => trace_summarize(args),
        other => Err(CliError::Domain(format!(
            "unknown trace verb {other:?}; try record, export or summarize"
        ))),
    }
}

fn trace_record(args: &Args) -> Result<String, CliError> {
    args.check_known(&[TRACE_CAMPAIGN_FLAGS, &["out"]].concat())?;
    let (scope, events) = trace_campaign(args)?;
    let jsonl = to_jsonl(&events);
    match args.str_opt("out") {
        Some(path) => {
            std::fs::write(path, &jsonl)
                .map_err(|e| CliError::Domain(format!("cannot write {path}: {e}")))?;
            Ok(format!("{scope}{} event(s) → {path}\n", events.len()))
        }
        None => Ok(jsonl),
    }
}

fn trace_export(args: &Args) -> Result<String, CliError> {
    args.check_known(
        &[
            TRACE_CAMPAIGN_FLAGS,
            &["file", "format", "width", "per-proc"],
        ]
        .concat(),
    )?;
    let (_, events) = trace_events_from(args)?;
    match args.str_or("format", "chrome").as_str() {
        "chrome" => Ok(chrome_trace_string(&events) + "\n"),
        "gantt" => Ok(render_events(
            &events,
            GanttOptions {
                width: width_of(args)?,
                by_group: !args.switch("per-proc"),
            },
        )),
        "jsonl" => Ok(to_jsonl(&events)),
        other => Err(CliError::Domain(format!(
            "unknown trace format {other:?}; try chrome, gantt or jsonl"
        ))),
    }
}

fn trace_summarize(args: &Args) -> Result<String, CliError> {
    args.check_known(&[TRACE_CAMPAIGN_FLAGS, &["file"]].concat())?;
    let (scope, events) = trace_events_from(args)?;
    let registry = MetricsRegistry::fold(&events);
    Ok(scope + &registry.snapshot().render_text())
}

fn dot_cmd(args: &Args) -> Result<String, CliError> {
    args.check_known(&["ns", "nm", "fused"])?;
    let (ns, nm) = shape_of(args, 2, 2)?;
    let shape = ExperimentShape::new(ns, nm);
    Ok(if args.switch("fused") {
        oa_workflow::dot::ir_dot(&oa_workflow::ir::lower_fused(shape), "fused")
    } else {
        oa_workflow::dot::ir_dot(&oa_workflow::ir::lower_experiment(shape), "experiment")
    })
}

fn serve_cmd(args: &Args) -> Result<String, CliError> {
    args.check_known(&[
        "script",
        "socket",
        "pipe",
        "jobs",
        "capacity",
        "planning-nm",
    ])?;
    // Placement prices campaigns of up to `capacity × planning_nm`
    // months, so the pair is read as a campaign shape.
    let (capacity, planning_nm) = read::shape(
        args.u32_or("capacity", 256)?,
        args.u32_or("planning-nm", 60)?,
    )?;
    let cfg = oa_service::daemon::ServiceConfig {
        capacity,
        planning_nm,
        ..Default::default()
    };
    let jobs = read::jobs(args.jobs_opt()?)?;
    let mut service = oa_service::daemon::Service::new(cfg, jobs);
    if let Some(path) = args.str_opt("script") {
        // Streamed like `--pipe`, so each line is read through the cap.
        let mut log = Vec::new();
        std::fs::File::open(path)
            .and_then(|file| {
                let input = std::io::BufReader::new(file);
                oa_service::daemon::run_pipe(&mut service, input, &mut log)
            })
            .map_err(|e| CliError::Domain(format!("cannot read {path:?}: {e}")))?;
        return Ok(String::from_utf8(log).expect("responses render as UTF-8"));
    }
    if args.switch("pipe") {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        oa_service::daemon::run_pipe(&mut service, stdin.lock(), &mut stdout.lock())
            .map_err(|e| CliError::Domain(format!("pipe I/O failed: {e}")))?;
        return Ok(String::new());
    }
    if let Some(path) = args.str_opt("socket") {
        #[cfg(unix)]
        {
            oa_service::socket::run_socket(&mut service, std::path::Path::new(path))
                .map_err(|e| CliError::Domain(format!("socket {path:?} failed: {e}")))?;
            return Ok(format!(
                "served on {path}; shut down at t={:.1}s\n",
                service.now()
            ));
        }
        #[cfg(not(unix))]
        return Err(CliError::Domain(format!(
            "--socket {path} needs a Unix platform; use --pipe"
        )));
    }
    Err(CliError::Domain(
        "serve needs a transport: --script FILE, --pipe or --socket PATH".to_string(),
    ))
}

fn submit_cmd(args: &Args) -> Result<String, CliError> {
    args.check_known(&[
        "session",
        "ns",
        "nm",
        "heuristic",
        "policy",
        "unfused",
        "recovery",
        "kill",
        "deadline",
    ])?;
    let session = args
        .str_opt("session")
        .ok_or_else(|| CliError::Domain("submit needs --session NAME".to_string()))?
        .to_string();
    let (ns, nm) = (args.u32_or("ns", 10)?, args.u32_or("nm", 1800)?);
    let heuristic = args.str_or("heuristic", "knapsack");
    let policy = args.str_or("policy", "least-advanced");
    let granularity = granularity_of(args).label().to_string();
    let recovery = args.str_or("recovery", "checkpoint");
    let kills = args.str_or("kill", "");
    let deadline = args.f64_or("deadline", 0.0)?;
    // Validate client-side so a typo fails here, not at the daemon.
    oa_service::admission::parse_submission(
        &session,
        ns,
        nm,
        &heuristic,
        &policy,
        &granularity,
        &recovery,
        &kills,
        deadline,
    )
    .map_err(domain)?;
    let req = oa_service::wire::Request::Submit {
        session,
        ns,
        nm,
        heuristic,
        policy,
        granularity,
        recovery,
        kills,
        deadline,
    };
    Ok(serde_json::to_string(&req)
        .map_err(|e| CliError::Domain(format!("serialization failed: {e}")))?
        + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oa(words: &[&str]) -> Result<String, CliError> {
        run(words.iter().map(std::string::ToString::to_string))
    }

    #[test]
    fn help_lists_commands() {
        let h = oa(&["help"]).unwrap();
        for c in ["plan", "gantt", "table", "grid", "campaign"] {
            assert!(h.contains(c), "missing {c}");
        }
        // No args → help too.
        assert_eq!(oa(&[]).unwrap(), h);
    }

    #[test]
    fn plan_paper_example() {
        let out = oa(&["plan", "--r", "53", "--all", "--nm", "120"]).unwrap();
        assert!(out.contains("7×7 | post:4"), "{out}");
        assert!(out.contains("3×8 + 4×7 | post:1"), "{out}");
        assert!(out.contains("gain3-knapsack"));
    }

    #[test]
    fn plan_json_output() {
        let out = oa(&["plan", "--r", "24", "--nm", "12", "--json"]).unwrap();
        assert!(out.contains("\"makespan_secs\""));
    }

    #[test]
    fn sim_default_run_matches_the_estimator() {
        let out = oa(&["sim", "--ns", "4", "--nm", "24", "--r", "26"]).unwrap();
        assert!(out.contains("policy least-advanced"), "{out}");
        assert!(out.contains("fused granularity"), "{out}");
        let inst = Instance::new(4, 24, 26);
        let table = reference_cluster(26).timing;
        let grouping = Heuristic::Knapsack.grouping(inst, &table).unwrap();
        let est = estimate(inst, &table, &grouping).unwrap();
        assert!(
            out.contains(&format!("({:.0} s)", est.makespan)),
            "{out} vs {}",
            est.makespan
        );
    }

    /// The IR front end keeps preset campaigns byte-identical: `oa sim
    /// --workflow preset` must print exactly what the legacy path does,
    /// for both granularities.
    #[test]
    fn sim_workflow_preset_matches_the_legacy_path() {
        let legacy = oa(&["sim", "--ns", "4", "--nm", "24", "--r", "26"]).unwrap();
        let ir = oa(&[
            "sim",
            "--ns",
            "4",
            "--nm",
            "24",
            "--r",
            "26",
            "--workflow",
            "preset",
        ])
        .unwrap();
        assert_eq!(ir, legacy);
        let legacy = oa(&["sim", "--ns", "4", "--nm", "24", "--r", "26", "--unfused"]).unwrap();
        let ir = oa(&[
            "sim",
            "--ns",
            "4",
            "--nm",
            "24",
            "--r",
            "26",
            "--unfused",
            "--workflow",
            "preset",
        ])
        .unwrap();
        assert_eq!(ir, legacy);
    }

    #[test]
    fn sim_workflow_file_runs_general_dags_on_the_ir_engine() {
        let path = std::env::temp_dir().join("oa-cli-workflow-test.json");
        std::fs::write(
            &path,
            r#"{"nodes":[{"name":"a","min_procs":4,"max_procs":11,"secs":"main"},
                         {"name":"b","min_procs":4,"max_procs":11,"secs":"main"},
                         {"name":"post","procs":1,"secs":"post"}],
                "edges":[{"from":"a","to":"b","mb":120.0},{"from":"b","to":"post"}]}"#,
        )
        .unwrap();
        let out = oa(&["sim", "--r", "26", "--workflow", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("general DAG"), "{out}");
        assert!(out.contains("3 task(s), 2 edge(s)"), "{out}");
        let json = oa(&[
            "sim",
            "--r",
            "26",
            "--workflow",
            path.to_str().unwrap(),
            "--json",
        ])
        .unwrap();
        assert!(json.contains("\"makespan\""), "{json}");
        std::fs::remove_file(&path).ok();
    }

    /// `--batch` runs the mass-batch sweep; `--naive` replays it
    /// variant by variant with the same checksum (the bitwise
    /// invariant, surfaced at the CLI level).
    #[test]
    fn sim_batch_runs_sweeps_and_naive_agrees() {
        let path = std::env::temp_dir().join("oa-cli-batch-test.json");
        std::fs::write(
            &path,
            r#"{"r": 30, "ns": 4, "nm": 40, "variants": 24, "max_faults": 2, "seed": 5}"#,
        )
        .unwrap();
        let p = path.to_str().unwrap();
        let out = oa(&["sim", "--batch", p]).unwrap();
        assert!(out.contains("1 shape(s), 24 variant(s)"), "{out}");
        assert!(out.contains("cross-variant sharing"), "{out}");
        let naive = oa(&["sim", "--batch", p, "--naive"]).unwrap();
        assert!(naive.contains("naive per-variant loop"), "{naive}");
        let sum = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("checksum"))
                .map(str::to_string)
        };
        assert_eq!(sum(&out), sum(&naive), "batch/naive checksums differ");
        let json = oa(&["sim", "--batch", p, "--json"]).unwrap();
        assert!(json.contains("\"checksum\""), "{json}");
        assert!(json.contains("\"engine\": \"batch\""), "{json}");
        // Bad specs fail as domain errors, not panics.
        std::fs::write(&path, r#"{"variants": 0}"#).unwrap();
        assert!(oa(&["sim", "--batch", p]).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// A spec nested past the JSON reader's limit is an error exit for
    /// both spec readers, not a stack overflow.
    #[test]
    fn deeply_nested_specs_are_domain_errors() {
        let path = std::env::temp_dir().join("oa-cli-deep-spec.json");
        std::fs::write(&path, "[".repeat(50_000)).unwrap();
        let p = path.to_str().unwrap();
        for flag in ["--workflow", "--batch"] {
            let err = oa(&["sim", flag, p]).unwrap_err();
            assert!(matches!(err, CliError::Domain(_)), "{flag}: {err:?}");
        }
        std::fs::remove_file(&path).ok();
    }

    /// An edge volume that rounds to no byte, or past `u64::MAX` bytes,
    /// is a bad spec field.
    #[test]
    fn edge_volumes_outside_a_byte_count_are_bad_specs() {
        let path = std::env::temp_dir().join(format!("oa-cli-volume-{}.json", std::process::id()));
        for mb in ["1e-7", "1e300"] {
            std::fs::write(
                &path,
                format!(
                    r#"{{"nodes":[{{"name":"a","procs":1,"secs":1.0}},{{"name":"b","procs":1,"secs":1.0}}],
                        "edges":[{{"from":"a","to":"b","mb":{mb}}}]}}"#
                ),
            )
            .unwrap();
            let err = oa(&["sim", "--r", "4", "--workflow", path.to_str().unwrap()]).unwrap_err();
            assert!(
                matches!(&err, CliError::Domain(m) if m.contains("bad workflow spec: mb must")),
                "mb {mb}: {err:?}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sim_dot_renders_the_workflow_ir() {
        let out = oa(&["sim", "--ns", "2", "--nm", "3", "--dot"]).unwrap();
        assert!(out.starts_with("digraph"), "{out}");
        // 2×3 fused mesh: 6 mains + 6 posts.
        assert_eq!(out.matches("fillcolor").count(), 12, "{out}");
        // A malformed workflow file is a domain error, not a panic.
        let err = oa(&["sim", "--workflow", "/nonexistent/wf.json"]).unwrap_err();
        assert!(matches!(err, CliError::Domain(_)));
    }

    #[test]
    fn sim_accepts_every_new_knob_combination() {
        // Unfused granularity + non-default policy, from the CLI.
        let out = oa(&[
            "sim",
            "--ns",
            "4",
            "--nm",
            "24",
            "--r",
            "26",
            "--unfused",
            "--policy",
            "round-robin",
        ])
        .unwrap();
        assert!(out.contains("policy round-robin"), "{out}");
        assert!(out.contains("unfused granularity"), "{out}");
        assert!(out.contains("completed: makespan"), "{out}");
        // JSON mode is machine-readable.
        let json = oa(&[
            "sim",
            "--ns",
            "4",
            "--nm",
            "24",
            "--r",
            "26",
            "--unfused",
            "--json",
        ])
        .unwrap();
        assert!(json.contains("makespan"), "{json}");
        // Unknown policies fail loudly.
        assert!(matches!(
            oa(&["sim", "--policy", "fifo"]),
            Err(CliError::Domain(_))
        ));
    }

    #[test]
    fn sim_kill_flag_injects_failures() {
        let out = oa(&[
            "sim", "--ns", "4", "--nm", "24", "--r", "26", "--kill", "0@5000",
        ])
        .unwrap();
        assert!(out.contains("1 kill(s)"), "{out}");
        assert!(out.contains("damage:"), "{out}");
        // Restart-from-scratch recovery can only be worse.
        let restart = oa(&[
            "sim",
            "--ns",
            "4",
            "--nm",
            "24",
            "--r",
            "26",
            "--kill",
            "0@5000",
            "--recovery",
            "restart",
        ])
        .unwrap();
        assert!(restart.contains("damage:"), "{restart}");
        // Malformed kill specs are domain errors, not panics.
        assert!(matches!(
            oa(&["sim", "--kill", "zero@ten"]),
            Err(CliError::Domain(_))
        ));
    }

    /// The text output says what the kernel did. Two kills on the
    /// reference campaign: the main phase replays cycles before, between
    /// and after them, the drain replays by availability, and nothing
    /// observes the run. The JSON output carries only the outcome.
    #[test]
    fn sim_reports_the_kernel() {
        let argv = [
            "sim",
            "--ns",
            "10",
            "--nm",
            "1800",
            "--r",
            "53",
            "--heuristic",
            "basic",
            "--kill",
            "2@1000000,5@3000000",
        ];
        let out = oa(&argv).unwrap();
        let line = out.lines().nth(2).unwrap_or_default();
        assert_eq!(
            line,
            "kernel: integer time yes, cycles replayed 990 main / 706 post, \
             closed-form drain no, posts counted 0",
            "{out}"
        );
        let json = oa(&[&argv[..], &["--json"]].concat()).unwrap();
        assert!(
            !json.contains("kernel") && !json.contains("cycles"),
            "{json}"
        );
    }

    #[test]
    fn sim_preflights_bad_fault_plans_as_oa018() {
        let err = oa(&[
            "sim", "--ns", "4", "--nm", "24", "--r", "26", "--kill", "99@10",
        ])
        .unwrap_err();
        let CliError::AnalysisFailed(report) = err else {
            panic!("{err:?}")
        };
        assert!(report.contains("error[OA018]"), "{report}");
    }

    #[test]
    fn analyze_clean_campaign_passes() {
        let out = oa(&["analyze", "--ns", "4", "--nm", "24", "--r", "26"]).unwrap();
        assert!(!out.contains("error["), "{out}");
        assert!(out.contains("campaign on reference"), "{out}");
        // The report, as text and as JSON, is pinned byte for byte.
        assert_eq!(
            out,
            include_str!("../../../tests/golden/analyze_4x24_r26.txt")
        );
        let json = oa(&["analyze", "--ns", "4", "--nm", "24", "--r", "26", "--json"]).unwrap();
        assert_eq!(
            json,
            include_str!("../../../tests/golden/analyze_4x24_r26.json")
        );
    }

    #[test]
    fn analyze_prints_rule_catalog() {
        let out = oa(&["analyze", "--rules"]).unwrap();
        for code in ["OA002", "OA008", "OA017"] {
            assert!(out.contains(code), "{out}");
        }
        for layer in ["workflow", "scheduling", "schedule", "platform"] {
            assert!(out.contains(layer), "{out}");
        }
        // All 25 rules, one line each under the header.
        assert_eq!(out.lines().count(), 1 + 25, "{out}");
        assert_eq!(out, include_str!("../../../tests/golden/analyze_rules.txt"));
    }

    #[test]
    fn analyze_slow_link_fails_with_oa017() {
        let err = oa(&[
            "analyze",
            "--ns",
            "4",
            "--nm",
            "24",
            "--r",
            "26",
            "--bandwidth",
            "0.01",
        ])
        .unwrap_err();
        let CliError::AnalysisFailed(report) = err else {
            panic!("{err:?}")
        };
        assert!(report.contains("error[OA017]"), "{report}");
    }

    #[test]
    fn analyze_corrupted_schedule_file_reports_all_defects() {
        // Execute a valid schedule, then corrupt it two independent
        // ways: a violated month dependence that also overlaps the
        // predecessor's processors. One pass must report both.
        let inst = Instance::new(2, 4, 14);
        let table = reference_cluster(14).timing;
        let grouping = Heuristic::Basic.grouping(inst, &table).unwrap();
        let mut schedule = execute_default(inst, &table, &grouping).unwrap();
        let victim = schedule
            .records
            .iter()
            .position(|r| r.task == oa_workflow::fusion::FusedTask::main(0, 1))
            .unwrap();
        let pred = schedule
            .record_of(oa_workflow::fusion::FusedTask::main(0, 0))
            .unwrap();
        let (ps, pe) = (pred.start, pred.end);
        schedule.records[victim].start = ps + 0.25 * (pe - ps);
        schedule.records[victim].end = ps + 0.75 * (pe - ps);
        let path = std::env::temp_dir().join("oa-cli-analyze-test.json");
        std::fs::write(&path, serde_json::to_string_pretty(&schedule).unwrap()).unwrap();

        let err = oa(&["analyze", "--file", path.to_str().unwrap()]).unwrap_err();
        std::fs::remove_file(&path).ok();
        let CliError::AnalysisFailed(report) = err else {
            panic!("{err:?}")
        };
        assert!(report.contains("error[OA009]"), "{report}");
        assert!(report.contains("error[OA010]"), "{report}");

        // JSON mode carries the same findings, machine-readable.
        std::fs::write(&path, serde_json::to_string_pretty(&schedule).unwrap()).unwrap();
        let err = oa(&["analyze", "--file", path.to_str().unwrap(), "--json"]).unwrap_err();
        std::fs::remove_file(&path).ok();
        let CliError::AnalysisFailed(json) = err else {
            panic!("json mode")
        };
        assert!(
            json.contains("\"OA009\"") && json.contains("\"OA010\""),
            "{json}"
        );
    }

    #[test]
    fn gantt_renders() {
        let out = oa(&[
            "gantt", "--ns", "2", "--nm", "3", "--r", "12", "--width", "40",
        ])
        .unwrap();
        assert!(out.contains("makespan"));
        assert!(out.contains('#'));
    }

    #[test]
    fn table_prints_all_group_sizes() {
        let out = oa(&["table", "--cluster", "grelon"]).unwrap();
        assert!(out.contains("grelon"));
        assert!(out.lines().count() >= 10);
    }

    #[test]
    fn grid_and_campaign_agree() {
        let g = oa(&["grid", "--nm", "24", "--resources", "25"]).unwrap();
        let c = oa(&["campaign", "--nm", "24", "--resources", "25"]).unwrap();
        let pick = |s: &str| {
            s.lines()
                .find(|l| l.contains("grid makespan"))
                .expect("makespan line")
                .to_string()
        };
        assert_eq!(pick(&g), pick(&c));
    }

    #[test]
    fn staging_switch_increases_makespan_slightly() {
        let plain = oa(&["grid", "--nm", "24", "--resources", "25"]).unwrap();
        let staged = oa(&["grid", "--nm", "24", "--resources", "25", "--staging"]).unwrap();
        assert_ne!(plain, staged);
    }

    #[test]
    fn import_round_trip_through_a_file() {
        let grid = benchmark_grid(24).take(2);
        let text = render_grid(&grid);
        let path = std::env::temp_dir().join("oa-cli-import-test.bench");
        std::fs::write(&path, text).unwrap();
        let out = oa(&[
            "import",
            "--file",
            path.to_str().unwrap(),
            "--ns",
            "4",
            "--nm",
            "12",
        ])
        .unwrap();
        assert!(out.contains("imported 2 cluster(s)"));
        assert!(out.contains("sagittaire"));
        assert!(out.contains("makespan"));
        std::fs::remove_file(&path).ok();
        // Missing file and missing flag are domain errors.
        assert!(matches!(oa(&["import"]), Err(CliError::Domain(_))));
        assert!(matches!(
            oa(&["import", "--file", "/nonexistent/x.bench"]),
            Err(CliError::Domain(_))
        ));
    }

    #[test]
    fn profile_reports_occupancy() {
        let out = oa(&["profile", "--ns", "4", "--nm", "6", "--r", "20"]).unwrap();
        assert!(out.contains("mean busy"));
        assert!(out.contains("time-bucket"));
        assert!(out.lines().count() > 10);
    }

    #[test]
    fn trace_chrome_export_matches_sim_metrics_exactly() {
        // Acceptance: on the seeded R = 53, NS = 10 campaign, the
        // Chrome export is valid JSON whose per-phase processor-second
        // totals equal oa-sim::metrics — exactly, not approximately.
        let out = oa(&["trace", "export", "--format", "chrome", "--nm", "24"]).unwrap();
        let doc: serde_json::Value = serde_json::from_str(out.trim()).unwrap();
        assert!(doc.get("traceEvents").is_some(), "{out}");

        let inst = Instance::new(10, 24, 53);
        let table = reference_cluster(53).timing;
        let grouping = Heuristic::Knapsack.grouping(inst, &table).unwrap();
        let sched = execute_default(inst, &table, &grouping).unwrap();
        let m = oa_sim::metrics::metrics(&sched);
        let other = doc.get("otherData").unwrap();
        let num = |k: &str| match other.get(k).unwrap() {
            serde_json::Value::F64(x) => *x,
            v => panic!("{k}: {v:?}"),
        };
        assert_eq!(num("main_proc_secs"), m.main_proc_secs);
        assert_eq!(num("post_proc_secs"), m.post_proc_secs);
        assert_eq!(num("makespan"), sched.makespan);
    }

    #[test]
    fn trace_record_and_replay_round_trip() {
        let path = std::env::temp_dir().join("oa-cli-trace-test.jsonl");
        let out = oa(&[
            "trace",
            "record",
            "--nm",
            "6",
            "--out",
            path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("event(s)"), "{out}");

        // A replayed export equals a freshly recorded one.
        let from_file = oa(&["trace", "export", "--file", path.to_str().unwrap()]).unwrap();
        let fresh = oa(&["trace", "export", "--nm", "6"]).unwrap();
        assert_eq!(from_file, fresh);

        // Summaries come from the same fold.
        let sum = oa(&["trace", "summarize", "--file", path.to_str().unwrap()]).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(sum.contains("tasks_completed_main"), "{sum}");
        assert!(sum.contains("makespan_secs"), "{sum}");
    }

    /// A trace line of exactly the cap is read (blank, so skipped), with
    /// `\n` or `\r\n`; one byte more is `PROTO011`, wherever it sits.
    #[test]
    fn trace_lines_past_the_cap_are_proto011() {
        let path = std::env::temp_dir().join(format!("oa-cli-cap-{}.jsonl", std::process::id()));
        let p = path.to_str().unwrap();
        let event = r#"{"t":0.0,"cluster":null,"kind":{"CampaignEnd":{"makespan":0.0}}}"#;
        let at_cap = " ".repeat(MAX_LINE_BYTES);
        let over = " ".repeat(MAX_LINE_BYTES + 1);
        let cases = [
            (format!("{at_cap}\n{event}\n"), true),
            (format!("{event}\n{}\r\n{event}", &at_cap[1..]), true),
            (format!("{event}\n{over}\n{event}\n"), false),
            (format!("{event}\n{at_cap}\r\n"), false),
            (over, false),
        ];
        for (i, (text, ok)) in cases.into_iter().enumerate() {
            std::fs::write(&path, text).unwrap();
            match oa(&["trace", "summarize", "--file", p]) {
                Ok(out) => assert!(ok && out.contains("makespan_secs"), "case {i}: {out}"),
                Err(CliError::Domain(msg)) => assert_eq!(
                    (ok, msg),
                    (
                        false,
                        format!("PROTO011: {p} has a line over the cap of 16777216 bytes")
                    ),
                    "case {i}"
                ),
                Err(e) => panic!("case {i}: {e:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_record_without_out_streams_jsonl() {
        let out = oa(&["trace", "record", "--ns", "2", "--nm", "3", "--r", "12"]).unwrap();
        assert!(out.lines().count() > 10, "{out}");
        assert!(out.lines().all(|l| l.starts_with('{')), "{out}");
    }

    #[test]
    fn trace_gantt_format_draws_a_chart() {
        let out = oa(&[
            "trace", "export", "--format", "gantt", "--ns", "2", "--nm", "3", "--r", "12",
        ])
        .unwrap();
        assert!(out.contains("makespan"), "{out}");
        assert!(out.contains('#'), "{out}");
    }

    #[test]
    fn trace_errors_are_reported() {
        assert!(matches!(
            oa(&["trace", "frobnicate"]),
            Err(CliError::Domain(_))
        ));
        assert!(matches!(
            oa(&["trace", "export", "--format", "svg"]),
            Err(CliError::Domain(_))
        ));
        assert!(matches!(
            oa(&["trace", "record", "--file", "x.jsonl"]),
            Err(CliError::Args(_))
        ));
        assert!(matches!(
            oa(&["trace", "export", "--file", "/nonexistent/t.jsonl"]),
            Err(CliError::Domain(_))
        ));
    }

    #[test]
    fn dot_outputs_graphviz() {
        let plain = oa(&["dot", "--ns", "1", "--nm", "2"]).unwrap();
        assert!(plain.starts_with("digraph"));
        assert!(plain.contains("s0m0:caif"));
        let fused = oa(&["dot", "--ns", "1", "--nm", "2", "--fused"]).unwrap();
        assert!(fused.contains("s0m1:post"));
        // Both granularities, pinned byte for byte at the default 2 × 2.
        assert_eq!(
            oa(&["dot", "--ns", "2", "--nm", "2"]).unwrap(),
            include_str!("../../../tests/golden/dot_2x2.dot")
        );
        assert_eq!(
            oa(&["dot", "--ns", "2", "--nm", "2", "--fused"]).unwrap(),
            include_str!("../../../tests/golden/dot_2x2_fused.dot")
        );
    }

    /// The workspace root, two levels above this crate.
    fn workspace_root() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .expect("workspace root exists")
    }

    #[test]
    fn audit_scan_self_hosts_clean() {
        let root = workspace_root();
        let out = oa(&["audit", "--root", root.to_str().unwrap()]).unwrap();
        assert!(out.contains("file(s) scanned"), "{out}");
        assert!(out.contains("analysis clean"), "{out}");
        // The explicit verb is the same command.
        let verbed = oa(&["audit", "scan", "--root", root.to_str().unwrap()]).unwrap();
        assert_eq!(out, verbed);
        // JSON mode emits the diagnostics array.
        let json = oa(&["audit", "--root", root.to_str().unwrap(), "--json"]).unwrap();
        assert!(json.contains("\"diagnostics\""), "{json}");
    }

    #[test]
    fn audit_scan_flags_seeded_hazards_and_stale_entries() {
        let dir = std::env::temp_dir().join(format!("oa-cli-audit-{}", std::process::id()));
        let src = dir.join("crates/demo/src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(
            src.join("lib.rs"),
            "use std::collections::HashMap;\nfn f() -> std::time::Instant { todo!() }\n",
        )
        .unwrap();
        let err = oa(&["audit", "--root", dir.to_str().unwrap()]).unwrap_err();
        let CliError::AnalysisFailed(report) = err else {
            panic!("expected findings, got {err:?}");
        };
        assert!(report.contains("ND001"), "{report}");
        assert!(report.contains("ND002"), "{report}");
        assert!(report.contains("crates/demo/src/lib.rs:1"), "{report}");
        // An allowlist both suppresses and is audited for staleness;
        // a stale entry warns (exit 0) so clean-ups aren't blocked on
        // pruning, but it is always visible in the report.
        std::fs::write(
            dir.join("audit.allow"),
            "ND001 crates/demo seeded for the test\nND002 crates/demo seeded for the test\n\
             ND006 crates/nowhere never fires\n",
        )
        .unwrap();
        let report = oa(&["audit", "--root", dir.to_str().unwrap()]).unwrap();
        assert!(report.contains("2 finding(s) suppressed"), "{report}");
        assert!(report.contains("warning[ND007]"), "{report}");
        std::fs::remove_dir_all(&dir).ok();
        // Pointing --allow at a missing file is a usage error.
        assert!(matches!(
            oa(&["audit", "--allow", "/nonexistent/audit.allow"]),
            Err(CliError::Domain(_))
        ));
    }

    #[test]
    fn audit_certify_cross_checks_the_engine() {
        // The paper's reference campaign (integral durations → the
        // kernel goes integer-time, and the certifier must agree).
        let out = oa(&["audit", "certify", "--ns", "10", "--nm", "24", "--r", "53"]).unwrap();
        assert!(out.contains("bounds ["), "{out}");
        assert!(out.contains("kernel int"), "{out}");
        assert!(out.contains("analysis clean"), "{out}");
        // A fractional kill instant stands the kernel down and drops
        // the upper bound, but still certifies.
        let faulty = oa(&[
            "audit", "certify", "--ns", "10", "--nm", "24", "--r", "53", "--kill", "0@100.5",
        ])
        .unwrap();
        assert!(faulty.contains("kernel float"), "{faulty}");
        assert!(faulty.contains("unbounded"), "{faulty}");
    }

    #[test]
    fn audit_certify_matrix_sweeps_every_preset() {
        let out = oa(&[
            "audit", "certify", "--matrix", "--ns", "4", "--nm", "12", "--r", "26", "--json",
        ])
        .unwrap();
        assert!(out.contains("\"cells\""), "{out}");
        assert!(out.contains("\"findings\": 0"), "{out}");
        for cluster in ["reference", "sagittaire", "grelon"] {
            assert!(out.contains(cluster), "missing {cluster}: {out}");
        }
        // 6 clusters × 3 policies × 2 granularities.
        assert_eq!(out.matches("\"bound_lo_secs\"").count(), 36, "{out}");
        // --matrix owns the policy/granularity axes.
        assert!(matches!(
            oa(&["audit", "certify", "--matrix", "--policy", "round-robin"]),
            Err(CliError::Domain(_))
        ));
    }

    #[test]
    fn audit_rules_and_errors() {
        let rules = oa(&["audit", "--rules"]).unwrap();
        assert!(
            rules.contains("ND001") && rules.contains("CT002"),
            "{rules}"
        );
        assert!(matches!(
            oa(&["audit", "frobnicate"]),
            Err(CliError::Domain(_))
        ));
        assert!(matches!(
            oa(&["audit", "certify", "--bogus", "1"]),
            Err(CliError::Args(_))
        ));
    }

    #[test]
    fn submit_builds_a_valid_request_line() {
        let line = oa(&["submit", "--session", "s1", "--ns", "3", "--nm", "12"]).unwrap();
        let req = oa_service::wire::parse_request(line.trim()).unwrap();
        match req {
            oa_service::wire::Request::Submit {
                session,
                ns,
                heuristic,
                ..
            } => {
                assert_eq!(session, "s1");
                assert_eq!(ns, 3);
                assert_eq!(heuristic, "knapsack");
            }
            other => panic!("expected Submit, got {other:?}"),
        }
        // Client-side validation catches what the daemon would reject.
        assert!(matches!(
            oa(&["submit", "--ns", "3"]),
            Err(CliError::Domain(_))
        ));
        assert!(matches!(
            oa(&["submit", "--session", "s", "--heuristic", "nope"]),
            Err(CliError::Domain(_))
        ));
    }

    #[test]
    fn serve_runs_a_scripted_transcript() {
        let path = std::env::temp_dir().join("oa_serve_cli_test.jsonl");
        std::fs::write(
            &path,
            concat!(
                r#"{"Hello": {"version": 1}}"#,
                "\n",
                r#"{"ClusterJoin": {"name": "ref", "preset": "reference", "resources": 53}}"#,
                "\n",
                r#"{"Submit": {"session": "s1", "ns": 2, "nm": 6, "heuristic": "knapsack", "policy": "least-advanced", "granularity": "fused", "recovery": "checkpoint", "kills": "", "deadline": 0.0}}"#,
                "\n",
                r#"{"Drain": {}}"#,
                "\n",
                r#"{"Shutdown": {}}"#,
                "\n",
            ),
        )
        .unwrap();
        let log = oa(&[
            "serve",
            "--script",
            path.to_str().unwrap(),
            "--capacity",
            "8",
            "--jobs",
            "1",
        ])
        .unwrap();
        std::fs::remove_file(&path).ok();
        for kind in ["Welcome", "ClusterUp", "Admitted", "Completed", "Bye"] {
            assert!(
                log.contains(&format!("\"{kind}\"")),
                "missing {kind}: {log}"
            );
        }
        // No transport is an invocation error.
        assert!(matches!(oa(&["serve"]), Err(CliError::Domain(_))));
    }

    /// `--script` streams its file through the pipe loop: a line that
    /// is not UTF-8 ends the run as a read error, as it does in
    /// `--pipe` mode.
    #[test]
    fn serve_script_refuses_a_line_that_is_not_utf8() {
        let path = std::env::temp_dir().join(format!("oa-serve-utf8-{}.jsonl", std::process::id()));
        std::fs::write(&path, b"{\"Hello\": {\"version\": 1}}\n\xff\xfe\n").unwrap();
        let err = oa(&["serve", "--script", path.to_str().unwrap(), "--jobs", "1"]).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(
            matches!(&err, CliError::Domain(m) if m.starts_with("cannot read") && m.contains("utf-8")),
            "{err:?}"
        );
    }

    /// No flag value can panic `oa`. Most rows once aborted the process
    /// (a zero shape reached `Instance::new` or `ExperimentShape::new`,
    /// a cluster under 4 processors reached `Cluster::new`); the rest
    /// pin that every subcommand answers the same way. Each row must be
    /// a domain error carrying the campaign reader's `CODE: message`.
    #[test]
    fn zero_and_tiny_flags_are_errors_not_panics() {
        let empty = |ns: u32, nm: u32| format!("OA002: empty campaign shape: ns={ns}, nm={nm}");
        let small = |cluster: &str, r: u32| {
            format!("OA016: cluster {cluster:?} has {r} processors; the smallest group needs 4")
        };
        let probes: Vec<(&[&str], String)> = vec![
            (&["plan", "--ns", "0"], empty(0, 1800)),
            (&["plan", "--nm", "0"], empty(10, 0)),
            (&["sim", "--ns", "0"], empty(0, 120)),
            (&["sim", "--nm", "0"], empty(10, 0)),
            (&["sim", "--ns", "0", "--workflow", "preset"], empty(0, 120)),
            (&["analyze", "--ns", "0"], empty(0, 1800)),
            (&["analyze", "--nm", "0"], empty(10, 0)),
            (&["gantt", "--ns", "0"], empty(0, 12)),
            (&["gantt", "--nm", "0"], empty(4, 0)),
            (&["profile", "--ns", "0"], empty(0, 24)),
            (&["profile", "--nm", "0"], empty(10, 0)),
            (&["audit", "certify", "--ns", "0"], empty(0, 120)),
            (&["audit", "certify", "--nm", "0"], empty(10, 0)),
            (&["dot", "--ns", "0"], empty(0, 2)),
            (&["dot", "--nm", "0"], empty(2, 0)),
            (&["trace", "export", "--ns", "0"], empty(0, 120)),
            (&["trace", "summarize", "--nm", "0"], empty(10, 0)),
            (&["trace", "record", "--ns", "0"], empty(0, 120)),
            (&["grid", "--ns", "0"], empty(0, 1800)),
            (&["grid", "--nm", "0"], empty(10, 0)),
            (&["campaign", "--nm", "0"], empty(10, 0)),
            (&["import", "--file", "x.bench", "--ns", "0"], empty(0, 120)),
            (&["submit", "--session", "s", "--nm", "0"], empty(10, 0)),
            (&["audit", "certify", "--r", "0"], small("reference", 0)),
            (&["grid", "--resources", "3"], small("sagittaire", 3)),
            (&["campaign", "--resources", "0"], small("sagittaire", 0)),
            (&["plan", "--r", "3"], small("reference", 3)),
            (
                &["sim", "--recovery", "bogus"],
                "PROTO003: unknown recovery \"bogus\"".to_string(),
            ),
            (
                &["submit", "--session", "s", "--recovery", "bogus"],
                "PROTO003: unknown recovery \"bogus\"".to_string(),
            ),
            (
                &[
                    "campaign",
                    "--ns",
                    "1000",
                    "--nm",
                    "2000000",
                    "--clusters",
                    "3",
                    "--resources",
                    "50",
                ],
                "PROTO011: campaign exceeds the size cap: ns=1000, nm=2000000 is \
                 2000000000 months, over 1048576"
                    .to_string(),
            ),
            (
                &["campaign", "--resources", "2000"],
                "PROTO011: cluster \"sagittaire\" has 2000 processors, over the cap of 1024"
                    .to_string(),
            ),
        ];
        for (words, want) in probes {
            match std::panic::catch_unwind(|| oa(words)) {
                Ok(Err(CliError::Domain(msg))) => assert_eq!(msg, want, "{words:?}"),
                Ok(other) => panic!("{words:?}: expected a domain error, got {other:?}"),
                Err(_) => panic!("{words:?} panicked"),
            }
        }
    }

    /// Every size probe that once aborted `oa` on a huge allocation,
    /// panicked or ran until killed is a coded refusal before anything
    /// is sized by it: the shape and processor caps of the campaign
    /// reader, the `--width` cap, a preset header's shape read before
    /// lowering, an imported stanza's processors, the daemon's
    /// `(capacity, planning-nm)` pair, the `--jobs` cap, the spec file
    /// cap on an `--allow` list and the instance of a saved schedule.
    #[test]
    fn size_probes_are_coded_refusals() {
        let dir = std::env::temp_dir().join(format!("oa-cli-probes-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let wf = dir.join("preset.json");
        std::fs::write(
            &wf,
            r#"{"preset":{"ns":100000,"nm":100000,"granularity":"fused"}}"#,
        )
        .unwrap();
        let bench = dir.join("big.bench");
        let mut stanza = String::from("cluster b 4000000000\n");
        for g in 4..=11 {
            stanza.push_str(&format!("main {g} {}\n", 2000 - 10 * g));
        }
        stanza.push_str("post 180\n");
        std::fs::write(&bench, stanza).unwrap();
        let script = dir.join("join.jsonl");
        std::fs::write(
            &script,
            "{\"Hello\":{\"version\":1}}\n\
             {\"ClusterJoin\":{\"name\":\"ref\",\"preset\":\"reference\",\"resources\":53}}\n",
        )
        .unwrap();
        let sched = dir.join("huge_sched.json");
        std::fs::write(
            &sched,
            r#"{"instance":{"ns":100000,"nm":100000,"r":53},"records":[],"makespan":1.0}"#,
        )
        .unwrap();
        let wide = dir.join("wide_sched.json");
        std::fs::write(
            &wide,
            r#"{"instance":{"ns":10,"nm":10,"r":4000000000},"records":[],"makespan":1.0}"#,
        )
        .unwrap();
        // Sparse: one byte over the cap takes no disk.
        let allow = dir.join("big.allow");
        std::fs::File::create(&allow)
            .and_then(|file| file.set_len(MAX_LINE_BYTES as u64 + 1))
            .unwrap();
        // A sparse trace whose one line runs a byte over the cap.
        let trace = dir.join("big.trace");
        std::fs::File::create(&trace)
            .and_then(|file| file.set_len(MAX_LINE_BYTES as u64 + 1))
            .unwrap();
        let (wf, bench, script, sched, wide, allow, trace) = (
            wf.to_str().unwrap(),
            bench.to_str().unwrap(),
            script.to_str().unwrap(),
            sched.to_str().unwrap(),
            wide.to_str().unwrap(),
            allow.to_str().unwrap(),
            trace.to_str().unwrap(),
        );
        let months = |ns: u64, nm: u64| {
            format!(
                "PROTO011: campaign exceeds the size cap: ns={ns}, nm={nm} is {} months, \
                 over 1048576",
                ns * nm
            )
        };
        let huge = ["--ns", "1", "--nm", "2000000000", "--r", "53"];
        let knapsack = ["--heuristic", "knapsack"];
        let width = "PROTO011: --width 4000000000 is over the cap of 1000 columns".to_string();
        let probes: Vec<(Vec<&str>, String)> = vec![
            ([&["plan"][..], &huge].concat(), months(1, 2_000_000_000)),
            (
                [&["analyze"][..], &huge, &knapsack].concat(),
                months(1, 2_000_000_000),
            ),
            (
                [&["sim"][..], &huge, &knapsack].concat(),
                months(1, 2_000_000_000),
            ),
            (
                [&["gantt"][..], &huge, &knapsack, &["--width", "80"]].concat(),
                months(1, 2_000_000_000),
            ),
            (
                vec!["plan", "--ns", "10", "--nm", "1800", "--r", "4000000000"],
                "PROTO011: cluster \"reference\" has 4000000000 processors, over the cap of 1024"
                    .to_string(),
            ),
            (
                vec!["dot", "--ns", "100000", "--nm", "100000"],
                months(100_000, 100_000),
            ),
            (
                vec!["sim", "--workflow", wf, "--r", "53"],
                months(100_000, 100_000),
            ),
            (
                vec!["import", "--file", bench],
                "PROTO011: cluster \"b\" has 4000000000 processors, over the cap of 1024"
                    .to_string(),
            ),
            (
                vec![
                    "gantt",
                    "--ns",
                    "10",
                    "--nm",
                    "10",
                    "--r",
                    "53",
                    "--heuristic",
                    "knapsack",
                    "--width",
                    "4000000000",
                ],
                width.clone(),
            ),
            (
                vec![
                    "trace",
                    "export",
                    "--ns",
                    "10",
                    "--nm",
                    "10",
                    "--r",
                    "53",
                    "--format",
                    "gantt",
                    "--width",
                    "4000000000",
                ],
                width,
            ),
            (
                vec![
                    "grid",
                    "--ns",
                    "1000",
                    "--nm",
                    "2000000",
                    "--clusters",
                    "3",
                    "--resources",
                    "50",
                ],
                months(1000, 2_000_000),
            ),
            (
                vec!["serve", "--script", script, "--capacity", "4000000000"],
                months(4_000_000_000, 60),
            ),
            (
                vec!["serve", "--script", script, "--planning-nm", "2000000000"],
                months(256, 2_000_000_000),
            ),
            (
                vec!["serve", "--script", script, "--planning-nm", "0"],
                "OA002: empty campaign shape: ns=256, nm=0".to_string(),
            ),
            (
                vec!["sim", "--nm", "12", "--jobs", "4000000000"],
                "PROTO011: 4000000000 jobs, over the cap of 256".to_string(),
            ),
            (
                vec!["audit", "--allow", allow],
                format!("PROTO011: {allow} is over the cap of 16777216 bytes"),
            ),
            (
                vec!["trace", "summarize", "--file", trace],
                format!("PROTO011: {trace} has a line over the cap of 16777216 bytes"),
            ),
            (vec!["analyze", "--file", sched], months(100_000, 100_000)),
            (
                vec!["analyze", "--file", wide],
                "PROTO011: 4000000000 processors, over the cap of 1024".to_string(),
            ),
        ];
        for (words, want) in probes {
            match std::panic::catch_unwind(|| oa(&words)) {
                Ok(Err(CliError::Domain(msg))) => assert_eq!(msg, want, "{words:?}"),
                Ok(other) => panic!("{words:?}: expected a coded refusal, got {other:?}"),
                Err(_) => panic!("{words:?} panicked"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A spec file one byte over the daemon's line cap is `PROTO011`
    /// for all three readers, before it is decoded or parsed.
    #[test]
    fn spec_files_over_the_line_cap_are_proto011() {
        let path = std::env::temp_dir().join(format!("oa-cli-big-{}.json", std::process::id()));
        std::fs::write(&path, " ".repeat(MAX_LINE_BYTES + 1)).unwrap();
        let p = path.to_str().unwrap();
        let want = format!("PROTO011: {p} is over the cap of 16777216 bytes");
        for words in [
            ["sim", "--workflow", p],
            ["sim", "--batch", p],
            ["import", "--file", p],
        ] {
            match oa(&words) {
                Err(CliError::Domain(msg)) => assert_eq!(msg, want, "{words:?}"),
                other => panic!("{words:?}: {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn errors_are_reported() {
        assert!(matches!(
            oa(&["frobnicate"]),
            Err(CliError::UnknownCommand(_))
        ));
        assert!(matches!(
            oa(&["plan", "--bogus", "1"]),
            Err(CliError::Args(_))
        ));
        assert!(matches!(
            oa(&["plan", "--heuristic", "nope"]),
            Err(CliError::Domain(_))
        ));
        assert!(matches!(
            oa(&["plan", "--cluster", "mars"]),
            Err(CliError::Domain(_))
        ));
        assert!(matches!(
            oa(&["grid", "--clusters", "9"]),
            Err(CliError::Domain(_))
        ));
        // R too small for any group.
        assert!(matches!(
            oa(&["plan", "--r", "3", "--nm", "2"]),
            Err(CliError::Domain(_))
        ));
    }
}
