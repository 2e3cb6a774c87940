//! The lab pipeline driven through its layers' public functions, in the
//! order `nn-lab` calls them: spec → `ExecutionPlan::new` → executor →
//! `merge_shards` (+ `verify_merged_against_spec` when sharded) →
//! `finalize_report` → `to_json`/`to_csv` → write → re-read →
//! `Json::parse` with the cell-count check.
//!
//! [`untraced`] runs it as a user does, with the library's executors.
//! [`traced`] records a span around each public call and drives cells
//! itself with `run_cell_with_pool`, the way `ThreadExecutor` does (same
//! lazy strided order, one warm `FramePool` per thread), so per-cell
//! time is visible; it must reproduce the untraced bytes.

use crate::metrics::{median, percentile, Values};
use crate::trace::{self, Recorder, Span};
use crate::workload::{family_spec, worker_matrix_arg, Layout, Workload};
use nn_lab::json::Json;
use nn_lab::matrix::MatrixCellSpec;
use nn_lab::{
    finalize_report, merge_shards, run_cell_with_pool, verify_merged_against_spec, CellAssignment,
    CellExecutor, CellReport, ExecutionPlan, ExperimentSpec, MatrixCell, MatrixReport,
    ProcessExecutor, ShardReport, StackKind, ThreadExecutor,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Mutex;
use std::time::Instant;

/// What one run of the pipeline needs to know.
#[derive(Clone)]
pub struct Context<'a> {
    /// The workload.
    pub workload: &'a Workload,
    /// Seed-axis value.
    pub seed_axis: u64,
    /// Where reports and spans are written.
    pub out_dir: PathBuf,
    /// This binary, started as `--worker` by the process executor.
    pub exe: PathBuf,
}

impl Context<'_> {
    /// The same context at seed-axis value `s`.
    pub fn at(&self, s: u64) -> Self {
        Context {
            seed_axis: s,
            ..self.clone()
        }
    }

    fn spec(&self) -> ExperimentSpec {
        family_spec(self.workload.family, self.seed_axis).expect("workload family has a spec")
    }

    fn sharded(&self) -> bool {
        matches!(self.workload.layout, Layout::Workers(_))
    }

    fn path(&self, ext: &str) -> PathBuf {
        self.out_dir.join(format!("{}.{ext}", self.workload.name))
    }
}

/// A certified report and what it took.
pub struct Certified {
    /// Report JSON as written.
    pub json: String,
    /// Report CSV as written.
    pub csv: String,
    /// Cells the re-parsed JSON holds.
    pub parsed_cells: usize,
    /// Cells the spec expands into.
    pub expected_cells: usize,
    /// Simulator events over every cell.
    pub sim_events: u64,
}

/// One untraced run's end-to-end timings, in seconds. It keeps no
/// report bytes, so that a run's peak memory does not grow with the
/// number of reports it makes.
pub struct Untraced {
    /// Simulator events over every cell.
    pub sim_events: u64,
    /// Run start → certified report.
    pub wall: f64,
    /// The executor's `execute` call.
    pub execute: f64,
    /// Last cell result in hand → certified report.
    pub report: f64,
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> String {
    format!("{what} {}: {e}", path.display())
}

/// Renders, writes, re-reads and re-parses `report`, as `nn-lab` does
/// before it exits. With a recorder, each step is a span under `parent`.
fn certify(
    ctx: &Context<'_>,
    report: &MatrixReport,
    expected_cells: usize,
    rec: Option<(&Recorder, usize)>,
) -> Result<Certified, String> {
    fn step<T>(rec: Option<(&Recorder, usize)>, name: &'static str, f: impl FnOnce() -> T) -> T {
        match rec {
            Some((r, parent)) => r.time(name, parent, f),
            None => f(),
        }
    }
    let (json_path, csv_path) = (ctx.path("json"), ctx.path("csv"));
    let json = step(rec, "matrix.to_json", || report.to_json());
    let csv = step(rec, "matrix.to_csv", || report.to_csv());
    step(rec, "io.write", || {
        std::fs::write(&json_path, &json).map_err(|e| io_err("writing", &json_path, e))?;
        std::fs::write(&csv_path, &csv).map_err(|e| io_err("writing", &csv_path, e))
    })?;
    let reread = step(rec, "io.reread", || {
        std::fs::read_to_string(&json_path).map_err(|e| io_err("re-reading", &json_path, e))
    })?;
    let parsed_cells = step(rec, "json.parse", || {
        Json::parse(&reread).map(|doc| {
            doc.get("cells")
                .and_then(Json::as_arr)
                .map(<[Json]>::len)
                .unwrap_or(0)
        })
    })?;
    Ok(Certified {
        json,
        csv,
        parsed_cells,
        expected_cells,
        sim_events: report.cells.iter().map(|c| c.report.events).sum(),
    })
}

fn process_executor(ctx: &Context<'_>) -> ProcessExecutor {
    let mut executor = ProcessExecutor::new(
        ctx.exe.clone(),
        worker_matrix_arg(ctx.workload.family, ctx.seed_axis),
    );
    executor.threads = Some(1);
    executor
}

/// One run as a user waits for it, with the library's executors.
pub fn untraced(ctx: &Context<'_>) -> Result<(Certified, Untraced), String> {
    let t0 = Instant::now();
    let spec = ctx.spec();
    let plan = ExecutionPlan::new(&spec, ctx.workload.layout.shards());
    let exec_start = t0.elapsed().as_secs_f64();
    let shards = match ctx.workload.layout {
        Layout::Threads(n) => ThreadExecutor::new(n).execute(&plan)?,
        Layout::Workers(_) => process_executor(ctx).execute(&plan)?,
    };
    let exec_end = t0.elapsed().as_secs_f64();
    let merged = merge_shards(shards).map_err(|e| format!("merge failed: {e}"))?;
    if ctx.sharded() {
        verify_merged_against_spec(&merged, &spec)?;
    }
    let report = finalize_report(merged, &spec);
    let out = certify(ctx, &report, spec.cell_count(), None)?;
    let wall = t0.elapsed().as_secs_f64();
    let timings = Untraced {
        sim_events: out.sim_events,
        wall,
        execute: exec_end - exec_start,
        report: wall - exec_end,
    };
    Ok((out, timings))
}

/// Spawns one worker child the way `ProcessExecutor` does, except that
/// its stderr is piped so its announcement can be seen and that it exits
/// once it has announced.
fn spawn_announcing_worker(
    ctx: &Context<'_>,
    assignment: &CellAssignment,
) -> Result<std::process::Child, String> {
    Command::new(&ctx.exe)
        .arg("--worker")
        .arg("--shard")
        .arg(format!("{}/{}", assignment.shard, assignment.shards))
        .arg("--matrix")
        .arg(worker_matrix_arg(ctx.workload.family, ctx.seed_axis))
        .arg("--threads")
        .arg("1")
        .arg("--announce-only")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning worker {}: {e}", ctx.exe.display()))
}

/// One set-up: run start → spec → plan → executor start, up to the
/// moment the first cell begins. Returns (set-up seconds, executor-start
/// seconds).
///
/// Threads: a pool like [`drive`]'s starts and its first thread takes
/// its first cell, which it then does not run. Workers: every child is
/// spawned and has announced its shard on stderr; the children then exit
/// and are reaped.
pub fn setup_once(ctx: &Context<'_>) -> Result<(f64, f64), String> {
    let t0 = Instant::now();
    let spec = ctx.spec();
    let plan = ExecutionPlan::new(&spec, ctx.workload.layout.shards());
    let exec_start = t0.elapsed().as_secs_f64();
    let first = match ctx.workload.layout {
        Layout::Threads(n) => {
            let queue = Mutex::new(plan.assignments()[0].cells(&spec));
            let first: Mutex<Option<f64>> = Mutex::new(None);
            std::thread::scope(|scope| {
                for _ in 0..n {
                    scope.spawn(|| {
                        let cell = queue.lock().expect("cell queue").next();
                        let now = t0.elapsed().as_secs_f64();
                        std::hint::black_box(cell);
                        let mut first = first.lock().expect("first-cell time");
                        *first = Some(first.map_or(now, |f: f64| f.min(now)));
                    });
                }
            });
            let first = first.into_inner().expect("first-cell time");
            first.expect("a thread took a cell")
        }
        Layout::Workers(_) => {
            // Every child that started is read and reaped, whatever
            // failed, before the first failure is returned.
            let mut failed = Ok(());
            let mut children = Vec::new();
            for a in plan.assignments() {
                match spawn_announcing_worker(ctx, &a) {
                    Ok(child) => children.push(child),
                    Err(e) => failed = failed.and(Err(e)),
                }
            }
            for child in &mut children {
                let stderr = child.stderr.take().expect("worker stderr is piped");
                let mut line = String::new();
                let read = BufReader::new(stderr).read_line(&mut line);
                if !matches!(read, Ok(n) if n > 0 && line.starts_with("worker shard")) {
                    let e = format!("worker did not announce its shard: {line:?}");
                    failed = failed.and(Err(e));
                }
            }
            let at = t0.elapsed().as_secs_f64();
            for child in &mut children {
                if let Err(e) = child.wait() {
                    failed = failed.and(Err(format!("reaping worker: {e}")));
                }
            }
            failed?;
            at
        }
    };
    Ok((first, first - exec_start))
}

/// Time and shape of one cell in a traced run.
#[derive(Debug, Clone)]
pub struct CellTime {
    /// Host seconds in `run_cell_with_pool`.
    pub secs: f64,
    /// Simulator events.
    pub events: u64,
    /// RSA keypairs the cell generated: the destination's plus
    /// `source.keygens`.
    pub keygens: u64,
}

/// The finished matrix cell for `report`, as the executors build it.
fn matrix_cell(mc: &MatrixCellSpec, report: CellReport) -> MatrixCell {
    MatrixCell {
        index: mc.index,
        topology: mc.cell.topology.name(),
        link: mc.cell.link.name(),
        workload: mc.cell.workload.name().to_string(),
        adversary: mc.cell.adversary.name().to_string(),
        stack: mc.cell.stack.name().to_string(),
        events: mc.cell.events.name().to_string(),
        seed_axis: mc.seed_axis,
        sim_seed: mc.cell.seed,
        report,
        relative: None,
        verdict: None,
    }
}

fn keygens(stack: StackKind, report: &CellReport) -> u64 {
    let source = report
        .counters
        .iter()
        .find(|(n, _)| n == "source.keygens")
        .map_or(0, |(_, v)| *v);
    source + u64::from(stack == StackKind::Neutralized)
}

/// One shard's work queue and result slots.
struct ShardState<I> {
    assignment: CellAssignment,
    queue: Mutex<I>,
    slots: Mutex<Vec<Option<MatrixCell>>>,
    pool: Mutex<(u64, u64)>,
}

/// Runs every shard of `plan` at once, `threads` threads per shard, each
/// thread pulling cells off its shard's lazy strided iterator with one
/// warm frame pool. Every cell is a `cell` span under `parent`. Returns
/// the shard reports, assembled from their public fields.
fn drive(
    plan: &ExecutionPlan<'_>,
    threads: usize,
    rec: &Recorder,
    parent: usize,
) -> (Vec<ShardReport>, Vec<CellTime>) {
    let spec = plan.spec();
    let total = spec.cell_count();
    let assignments = plan.assignments();
    let shards: Vec<_> = assignments
        .iter()
        .map(|&a| ShardState {
            assignment: a,
            queue: Mutex::new(a.cells(spec).enumerate()),
            slots: Mutex::new((0..a.cell_count(total)).map(|_| None).collect()),
            pool: Mutex::new((0, 0)),
        })
        .collect();
    let times = Mutex::new(Vec::with_capacity(total));
    std::thread::scope(|scope| {
        for shard in &shards {
            let n = threads.clamp(1, shard.assignment.cell_count(total).max(1));
            for _ in 0..n {
                let times = &times;
                scope.spawn(move || {
                    let mut pool = nn_netsim::FramePool::new();
                    loop {
                        let next = shard.queue.lock().expect("cell queue").next();
                        let Some((pos, mc)) = next else { break };
                        let start = rec.now();
                        let report = run_cell_with_pool(&mc.cell, &spec.tuning, &mut pool);
                        let end = rec.now();
                        rec.push("cell", Some(parent), start, end);
                        times.lock().expect("cell times").push(CellTime {
                            secs: end - start,
                            events: report.events,
                            keygens: keygens(mc.cell.stack, &report),
                        });
                        shard.slots.lock().expect("result slots")[pos] =
                            Some(matrix_cell(&mc, report));
                    }
                    let mut counts = shard.pool.lock().expect("pool counters");
                    counts.0 += pool.allocations();
                    counts.1 += pool.recycle_count();
                });
            }
        }
    });
    let reports = shards
        .into_iter()
        .map(|s| {
            let (pool_allocs, pool_recycled) = s.pool.into_inner().expect("pool counters");
            ShardReport {
                matrix: spec.name.clone(),
                shard: s.assignment.shard,
                shards: s.assignment.shards,
                total_cells: total,
                pool_allocs,
                pool_recycled,
                cells: s
                    .slots
                    .into_inner()
                    .expect("result slots")
                    .into_iter()
                    .map(|c| c.expect("every assigned cell ran"))
                    .collect(),
            }
        })
        .collect();
    (reports, times.into_inner().expect("cell times"))
}

/// Renders every shard to the worker wire format and parses it back, a
/// span each; returns the parsed reports and the wire bytes.
fn wire_round_trip(
    shards: &[ShardReport],
    rec: &Recorder,
    parent: usize,
) -> Result<(Vec<ShardReport>, usize), String> {
    let wire: Vec<String> = shards
        .iter()
        .map(|s| rec.time("shard.to_json", parent, || s.to_json()))
        .collect();
    let bytes = wire.iter().map(String::len).sum();
    let parsed = wire
        .iter()
        .map(|w| rec.time("shard.from_json", parent, || ShardReport::from_json(w)))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((parsed, bytes))
}

/// One traced run.
pub struct Traced {
    /// The report.
    pub out: Certified,
    /// Every span: the run's tree under span 0, then the off-path tree.
    pub spans: Vec<Span>,
    /// Per-layer metrics this run measured by itself.
    pub values: Values,
    /// Per-cell times.
    pub cells: Vec<CellTime>,
    /// Root span duration.
    pub wall: f64,
    /// Last cell result in hand → certified report.
    pub report: f64,
}

/// One traced run. Layers not on this workload's path (verify and the
/// shard wire round trip on in-process workloads) are timed after the
/// run, under a separate `off-path` root, on the run's cells as one
/// shard.
pub fn traced(ctx: &Context<'_>, run: u32) -> Result<Traced, String> {
    let rec = Recorder::new(run);
    let root = rec.open("run", None);
    let spec = rec.time("spec", root, || ctx.spec());
    let plan = rec.time("plan", root, || {
        ExecutionPlan::new(&spec, ctx.workload.layout.shards())
    });
    let exec = rec.open("executor", Some(root));
    let (shards, cells) = drive(&plan, ctx.workload.layout.threads_per_shard(), &rec, exec);
    rec.close(exec);
    let (shards, mut wire_bytes) = if ctx.sharded() {
        wire_round_trip(&shards, &rec, root)?
    } else {
        (shards, 0)
    };
    let merged = rec
        .time("merge", root, || merge_shards(shards))
        .map_err(|e| format!("merge failed: {e}"))?;
    if ctx.sharded() {
        rec.time("verify", root, || {
            verify_merged_against_spec(&merged, &spec)
        })?;
    }
    let report = rec.time("finalize", root, || finalize_report(merged, &spec));
    let out = certify(ctx, &report, spec.cell_count(), Some((&rec, root)))?;
    rec.close(root);

    let off = rec.open("off-path", None);
    if !ctx.sharded() {
        let shard = ShardReport {
            matrix: report.name.clone(),
            shard: 0,
            shards: 1,
            total_cells: report.cells.len(),
            pool_allocs: report.pool_allocs,
            pool_recycled: report.pool_recycled,
            cells: report
                .cells
                .iter()
                .map(|c| MatrixCell {
                    relative: None,
                    verdict: None,
                    ..c.clone()
                })
                .collect(),
        };
        let (parsed, bytes) = wire_round_trip(&[shard], &rec, off)?;
        wire_bytes = bytes;
        let merged = merge_shards(parsed).map_err(|e| format!("merge failed: {e}"))?;
        rec.time("verify", off, || verify_merged_against_spec(&merged, &spec))?;
    }
    rec.close(off);

    let spans = rec.into_spans();
    let own = trace::self_times(&spans);
    let layers = trace::layers(&spans);
    let total = |name: &str| layers.get(name).map_or(0.0, |l| l.total);
    let exec_span = &spans[exec];
    let wall = spans[root].duration();
    let first_cell = spans
        .iter()
        .filter(|s| s.name == "cell")
        .map(|s| s.start)
        .fold(f64::INFINITY, f64::min);

    let busy: f64 = cells.iter().map(|c| c.secs).sum();
    let events: u64 = cells.iter().map(|c| c.events).sum();
    let capacity = ctx.workload.layout.parallelism() as f64 * exec_span.duration();
    let cell_ms: Vec<f64> = cells.iter().map(|c| c.secs * 1e3).collect();
    let json_bytes = out.json.len() as f64;
    let mut values = Values::new();
    for (name, v) in [
        ("plan.s", total("plan")),
        ("executor.wall_s", exec_span.duration()),
        ("executor.busy_s", busy),
        ("executor.idle_s", capacity - busy),
        ("executor.parallel_eff", busy / capacity),
        ("executor.spawn_s", first_cell - exec_span.start),
        ("cell.ms.p50", median(&cell_ms)),
        ("cell.ms.p99", percentile(&cell_ms, 99.0)),
        ("cell.ms.max", percentile(&cell_ms, 100.0)),
        ("cell.ns_per_event", busy * 1e9 / events as f64),
        ("cell.events", events as f64),
        ("netsim.pool_allocs", report.pool_allocs as f64),
        (
            "netsim.pool_recycle_ratio",
            report.pool_recycled as f64 / report.pool_allocs as f64,
        ),
        ("shard.to_json_s", total("shard.to_json")),
        ("shard.from_json_s", total("shard.from_json")),
        ("shard.wire_bytes", wire_bytes as f64),
        ("shard.merge_s", total("merge")),
        ("matrix.verify_s", total("verify")),
        ("finalize.s", total("finalize")),
        ("matrix.to_json_s", total("matrix.to_json")),
        ("matrix.to_csv_s", total("matrix.to_csv")),
        ("report.json_bytes", json_bytes),
        ("json.parse_s", total("json.parse")),
        (
            "json.parse_ns_per_byte",
            total("json.parse") * 1e9 / json_bytes,
        ),
        ("io.write_s", total("io.write")),
        ("io.reread_s", total("io.reread")),
        ("trace.unattributed_s", own[root]),
    ] {
        values.insert(name, v);
    }
    Ok(Traced {
        out,
        values,
        report: spans[root].end - exec_span.end,
        spans,
        cells,
        wall,
    })
}

/// Plain and neutralized host seconds of every pair of cells that share
/// every other axis (and the simulator seed), run one after the other on
/// this thread.
pub fn paired_cells(spec: &ExperimentSpec) -> Vec<(f64, f64)> {
    let mut pool = nn_netsim::FramePool::new();
    let mut time = |cell: &nn_lab::CellSpec| {
        let t = Instant::now();
        std::hint::black_box(run_cell_with_pool(cell, &spec.tuning, &mut pool));
        t.elapsed().as_secs_f64()
    };
    spec.iter_cells()
        .filter(|mc| mc.cell.stack == spec.stacks[0])
        .map(|mc| {
            let mut cell = mc.cell;
            cell.stack = StackKind::Plain;
            let plain = time(&cell);
            cell.stack = StackKind::Neutralized;
            (plain, time(&cell))
        })
        .collect()
}

/// Milliseconds per `nn_crypto::generate_keypair` call at `bits`.
pub fn keygen_ms(bits: usize, samples: usize, seed: u64) -> Vec<f64> {
    (0..samples as u64)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(seed ^ (i << 20) ^ bits as u64);
            let t = Instant::now();
            std::hint::black_box(nn_crypto::generate_keypair(&mut rng, bits));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}
