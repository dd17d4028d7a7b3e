//! Runs one workload and assembles its report: the end-to-end metrics of an
//! untraced run, or the per-layer metrics of a traced one.
//!
//! End-to-end metrics always come from the untraced run. The traced run
//! repeats the workload with span recording on, takes the counter and
//! `/proc` deltas around its measured window, times the layers, and states
//! how far its own throughput fell behind (`driver.tracing_overhead_pct`).

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use caesar::{CaesarConfig, CaesarReplica};
use epaxos::{EpaxosConfig, EpaxosReplica};
use telemetry::RegistrySnapshot;

use crate::rig::gen::sub_seed;
use crate::rig::json::{self, Value};
use crate::rig::layers::{time_layers, LayerInputs};
use crate::rig::loadgen::Pace;
use crate::rig::metrics::{self, layer_sum_us_per_op, Measured, Usage};
use crate::rig::proc::{nproc, rss_mb, ProcSample};
use crate::rig::scratch::artefact_root;
use crate::rig::stats::{median, percentile};
use crate::rig::trace::{Span, Tracer};
use crate::rig::wan::{self, SimOutcome};
use crate::rig::workloads::{Kind, LanSpec, Workload};
use crate::rig::{counters, lan};

/// Measured window when `--seconds` is not given; `BENCHMARK.json`'s
/// `run_seconds`.
pub const DEFAULT_SECONDS: u64 = 12;
/// Simulated seconds one `wan-sim` session measures (~27.5k commands, about
/// one second of wall time); a run repeats sessions until `--seconds` of
/// wall time have passed and reports the median over sessions.
const WAN_SESSION_SIM_S: u64 = 60;
/// Simulated seconds of the CAESAR session a traced `lan-*` run times the
/// protocol step with.
const STEP_SIM_S: u64 = 20;
/// Simulated seconds of the EPaxos comparator session (its step costs an
/// order of magnitude more wall time than CAESAR's).
const EPAXOS_SIM_S: u64 = 5;

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
}

/// One run's result: the driver-facing line plus the record of how it was
/// made.
pub struct Report {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Measured,
    /// Non-default configuration and run details for the `run` line.
    pub details: Vec<(&'static str, Value)>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// `{"run": …}`: seed, window, git revision, processors, every
    /// non-default configuration value and whether the run was traced.
    pub fn run_line(&self, options: &Options) -> String {
        let mut members = vec![
            ("workload", Value::from(self.workload)),
            ("seed", Value::String(options.seed.to_string())),
            ("seconds", (options.seconds as f64).into()),
            ("traced", options.traced.into()),
            ("git_rev", Value::String(git_revision())),
            ("nproc", (nproc() as f64).into()),
        ];
        members.extend(self.details.iter().cloned());
        let failures = self.failures.iter().map(|f| Value::from(f.as_str())).collect();
        members.push(("failures", Value::Array(failures)));
        json::object([("run", json::object(members))]).to_line()
    }

    /// The last line of a run: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_line(&self, options: &Options) -> String {
        let table: &[_] = if options.traced { &metrics::PER_LAYER } else { &metrics::END_TO_END };
        json::object([
            ("correct", self.correct().into()),
            ("attempted", (self.attempted as f64).into()),
            ("failed", (self.failed as f64).into()),
            ("metrics", metrics::to_json(table, &self.metrics)),
        ])
        .to_line()
    }
}

/// The commit a run measured, read from the working directory's `.git`
/// (loose or packed ref). A checkout that is not a repository reads
/// `unknown`.
fn git_revision() -> String {
    let read = |path: &str| std::fs::read_to_string(Path::new(".git").join(path)).ok();
    let head = read("HEAD").unwrap_or_default();
    let rev = match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(reference) => read(reference).map(|rev| rev.trim().to_string()).or_else(|| {
            let packed = read("packed-refs")?;
            let line = packed.lines().find(|line| line.ends_with(reference))?;
            Some(line.split_whitespace().next()?.to_string())
        }),
    };
    rev.filter(|rev| !rev.is_empty()).unwrap_or_else(|| "unknown".to_string())
}

pub fn run_workload(workload: Workload, options: &Options) -> io::Result<Report> {
    let root = artefact_root()?;
    std::fs::create_dir_all(&root)?;
    let mut tracer = options.traced.then(Tracer::new);
    let mut report = match workload.kind {
        Kind::Lan(spec) => run_lan(workload.name, &spec, options, &root, tracer.as_mut())?,
        Kind::WanSim => run_wan(workload.name, options, &root, tracer.as_mut())?,
    };
    if let Some(tracer) = tracer {
        let path = root.join(format!("trace-{}.json", workload.name));
        tracer.write_json(&path, workload.name)?;
        report.details.push(("span_file", Value::String(path.display().to_string())));
        report.details.push(("spans", (tracer.len() as f64).into()));
    }
    Ok(report)
}

fn lan_details(spec: &LanSpec) -> Vec<(&'static str, Value)> {
    let mut config = vec![
        ("cluster", Value::from("NetCluster, 3 CAESAR replicas on loopback, no injected delay")),
        ("caesar.recovery_timeout", Value::from("none")),
        ("conflict_percent", (spec.conflict_percent as f64).into()),
        ("private_keys", (spec.private_keys as f64).into()),
        ("connections", (lan::CONNECTIONS as f64).into()),
        ("warmup_s", lan::WARMUP.as_secs_f64().into()),
        (
            "pace",
            match spec.pace {
                Pace::Closed { in_flight } => {
                    Value::String(format!("closed, {in_flight} in flight"))
                }
                Pace::Open { rate } => Value::String(format!("open, {rate} op/s")),
            },
        ),
    ];
    if let Some(max_batch) = spec.batch {
        config.push(("net.batch.max_batch", (max_batch as f64).into()));
    }
    if spec.durable {
        config.push(("net.data_dir", Value::from("set (scratch directory)")));
        config.push(("net.fsync", Value::from("per-batch")));
    }
    vec![("config", json::object(config))]
}

fn run_lan(
    name: &'static str,
    spec: &LanSpec,
    options: &Options,
    scratch: &Path,
    mut tracer: Option<&mut Tracer>,
) -> io::Result<Report> {
    let window = Duration::from_secs(options.seconds);
    let run = lan::run(spec, options.seed, window, scratch, tracer.as_deref_mut())?;
    let mut details = lan_details(spec);
    let per_slice = run.slice_throughputs(None).into_iter().map(Value::from).collect();
    details.push(("slice_throughput_ops_s", Value::Array(per_slice)));
    details.push(("samples", run.ops().into()));

    let metrics = match tracer {
        None => run.end_to_end(),
        Some(tracer) => {
            let ops = run.ops();
            let mut m = Measured::new();
            m.extend(counters::window_metrics(&run.counters, ops));
            process_metrics(&mut m, &run.cpu, run.rss_mb_end, ops);
            m.insert("driver.late_p99_us", percentile(&mut run.late_us.clone(), 0.99));
            let (open_p99, open_p999) = lan::open_loop_tail(spec, &run);
            m.insert("driver.open_p99_ms", open_p99);
            m.insert("driver.open_p999_ms", open_p999);
            // Every other slice recorded request spans; the rest did not.
            let untraced = median(&run.slice_throughputs(Some(false)));
            let traced = median(&run.slice_throughputs(Some(true)));
            m.insert("driver.tracing_overhead_pct", 100.0 * (1.0 - traced / untraced.max(1e-9)));

            let inputs = LayerInputs {
                seed: options.seed,
                conflict_percent: spec.conflict_percent,
                private_keys: spec.private_keys / lan::CONNECTIONS,
            };
            m.extend(time_layers(inputs, tracer, scratch)?);
            let seed = sub_seed(options.seed, 100);
            let step = sim_session(Some(&mut *tracer), Protocol::Caesar, seed, STEP_SIM_S);
            sim_step_metrics(&mut m, std::slice::from_ref(&step));
            epaxos_metrics(&mut m, tracer, options.seed);

            let units = counters::units_decided(&run.counters);
            let usage = Usage {
                replicas: lan::REPLICAS as f64,
                unit_size: if units > 0.0 { (ops / units).max(1.0) } else { 1.0 },
                private_keys: spec.private_keys,
                durable: spec.durable,
                spans_per_op: run.replica_spans as f64 / ops.max(1.0),
            };
            let layer_sum = layer_sum_us_per_op(&m, usage);
            budget_metrics(&mut m, layer_sum);
            m
        }
    };
    Ok(Report {
        workload: name,
        attempted: run.attempted,
        failed: run.failed,
        failures: run.failures,
        metrics,
        details,
    })
}

/// The protocols the simulated rig runs.
#[derive(Debug, Clone, Copy)]
enum Protocol {
    Caesar,
    Epaxos,
}

/// Runs one simulated session; a traced run records it as one span.
fn sim_session(
    tracer: Option<&mut Tracer>,
    protocol: Protocol,
    seed: u64,
    sim_s: u64,
) -> SimOutcome {
    let started = Instant::now();
    let (name, outcome) = match protocol {
        Protocol::Caesar => {
            let config = CaesarConfig::new(wan::SITES);
            let make = move |id| CaesarReplica::new(id, config.clone());
            ("simnet.session.caesar", wan::run_session(seed, sim_s, make))
        }
        Protocol::Epaxos => {
            let config = EpaxosConfig::new(wan::SITES);
            let make = move |id| EpaxosReplica::new(id, config.clone());
            ("simnet.session.epaxos", wan::run_session(seed, sim_s, make))
        }
    };
    if let Some(tracer) = tracer {
        let (start_ns, end_ns) = (tracer.ns_at(started), tracer.now_ns());
        tracer.push(Span { name, start_ns, end_ns, command: None, parent: None });
    }
    outcome
}

/// The `process.*` rows and `driver.cpu_share` from the `/proc` deltas of a
/// window in which `ops` commands were answered.
fn process_metrics(m: &mut Measured, cpu: &ProcSample, rss_mb_end: f64, ops: f64) {
    m.insert("process.cpu_us_per_op", 1e6 * cpu.process_cpu_s / ops.max(1.0));
    m.insert("process.ctx_switches_per_op", cpu.ctx_switches as f64 / ops.max(1.0));
    m.insert("process.rss_mb_end", rss_mb_end);
    m.insert("driver.cpu_share", cpu.thread_cpu_s / cpu.process_cpu_s.max(1e-9));
}

/// The budget rows: the layer sum and the share of the measured CPU per
/// command it leaves unexplained.
fn budget_metrics(m: &mut Measured, layer_sum_us: f64) {
    let cpu_per_op = m["process.cpu_us_per_op"];
    m.insert("trace.layer_sum_us_per_op", layer_sum_us);
    m.insert("trace.unattributed_pct", 100.0 * (1.0 - layer_sum_us / cpu_per_op.max(1e-9)));
}

/// `caesar.step_us_per_cmd` and `simnet.events_per_wall_s` from CAESAR
/// sessions: the whole protocol step, with no sockets under it.
fn sim_step_metrics(m: &mut Measured, sessions: &[SimOutcome]) {
    let wall: f64 = sessions.iter().map(|s| s.wall.as_secs_f64()).sum();
    let commands: f64 = sessions.iter().map(|s| s.latencies_ms.len() as f64).sum();
    let events: u64 = sessions
        .iter()
        .map(|s| {
            s.counters.counter("sim.messages_delivered") + s.counters.counter("sim.timers_fired")
        })
        .sum();
    m.insert("caesar.step_us_per_cmd", 1e6 * wall / commands.max(1.0));
    m.insert("simnet.events_per_wall_s", events as f64 / wall.max(1e-9));
}

/// The paper's comparator on the same simulated rig. Moves no end-to-end
/// metric; kept so a CAESAR latency claim can be read against it.
fn epaxos_metrics(m: &mut Measured, tracer: &mut Tracer, seed: u64) {
    let mut session =
        sim_session(Some(tracer), Protocol::Epaxos, sub_seed(seed, 200), EPAXOS_SIM_S);
    let commands = session.latencies_ms.len().max(1) as f64;
    m.insert("epaxos.step_us_per_cmd", 1e6 * session.wall.as_secs_f64() / commands);
    m.insert("epaxos.sim_latency_p50_ms", percentile(&mut session.latencies_ms, 0.50));
}

fn run_wan(
    name: &'static str,
    options: &Options,
    scratch: &Path,
    mut tracer: Option<&mut Tracer>,
) -> io::Result<Report> {
    let budget = Duration::from_secs(options.seconds);
    let started = Instant::now();
    let cpu_before = ProcSample::now();
    let mut sessions: Vec<SimOutcome> = Vec::new();
    while sessions.is_empty() || started.elapsed() < budget {
        let seed = sub_seed(options.seed, sessions.len() as u64);
        let tracer = tracer.as_deref_mut();
        sessions.push(sim_session(tracer, Protocol::Caesar, seed, WAN_SESSION_SIM_S));
    }
    let cpu = ProcSample::now().since(&cpu_before);
    let rss_mb_end = rss_mb();
    let commands: f64 = sessions.iter().map(|s| s.latencies_ms.len() as f64).sum();

    let per_session = |stat: &dyn Fn(&SimOutcome) -> f64| -> f64 {
        median(&sessions.iter().map(stat).collect::<Vec<_>>())
    };
    let metrics = match tracer {
        None => Measured::from([
            ("throughput_ops_s", per_session(&|s| s.throughput_ops_s)),
            ("latency_p50_ms", per_session(&|s| percentile(&mut s.latencies_ms.clone(), 0.50))),
            ("latency_p99_ms", per_session(&|s| percentile(&mut s.latencies_ms.clone(), 0.99))),
            ("setup_s", per_session(&|s| s.setup.as_secs_f64())),
        ]),
        Some(tracer) => {
            let mut window = RegistrySnapshot::default();
            sessions.iter().for_each(|s| window.merge(&s.counters));
            let mut m = Measured::new();
            m.extend(counters::window_metrics(&window, commands));
            sim_step_metrics(&mut m, &sessions);
            // The whole run is one thread simulating; its CPU covers the
            // sessions' warm-ups and drains too, so it sits a little above
            // the step time.
            process_metrics(&mut m, &cpu, rss_mb_end, commands);
            // No socket driver runs here, and a session is one span: there
            // is no open-loop schedule and no per-request tracing to cost.
            for name in [
                "driver.late_p99_us",
                "driver.open_p99_ms",
                "driver.open_p999_ms",
                "driver.tracing_overhead_pct",
            ] {
                m.insert(name, 0.0);
            }
            let inputs = LayerInputs {
                seed: options.seed,
                conflict_percent: wan::CONFLICT_PERCENT as u64,
                private_keys: crate::rig::layers::SMALL_STATE / lan::CONNECTIONS,
            };
            m.extend(time_layers(inputs, tracer, scratch)?);
            epaxos_metrics(&mut m, tracer, options.seed);
            let layer_sum = m["caesar.step_us_per_cmd"];
            budget_metrics(&mut m, layer_sum);
            m
        }
    };

    let config = json::object([
        ("cluster", Value::from("SimSession, 5 CAESAR replicas, EC2 five-site latency matrix")),
        ("sim.jitter_us", (wan::JITTER_US as f64).into()),
        ("conflict_percent", wan::CONFLICT_PERCENT.into()),
        ("clients_per_site", (wan::CLIENTS_PER_SITE as f64).into()),
        ("warmup_sim_s", (wan::WARMUP_SIM_S as f64).into()),
        ("session_sim_s", (WAN_SESSION_SIM_S as f64).into()),
    ]);
    let mut failures = Vec::new();
    for (index, session) in sessions.iter().enumerate() {
        if session.failed() > 0 {
            failures.push(format!(
                "session {index}: {} wrong outputs, {} commands unapplied, fingerprints agree: {}",
                session.wrong_output, session.unapplied, session.fingerprints_agree
            ));
        }
    }
    Ok(Report {
        workload: name,
        attempted: sessions.iter().map(|s| s.attempted).sum(),
        failed: sessions.iter().map(SimOutcome::failed).sum(),
        failures,
        metrics,
        details: vec![
            ("config", config),
            ("sessions", (sessions.len() as f64).into()),
            ("samples", commands.into()),
        ],
    })
}
