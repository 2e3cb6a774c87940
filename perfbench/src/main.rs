//! `perfbench` — the lab benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --worker --shard I/N --matrix FAMILY@S [--threads T] [--announce-only]
//! perfbench --make-reference FILE --nn-lab PATH
//! ```
//!
//! A run makes certified matrices back to back for `--seconds` (a closed
//! batch), with a few set-ups before each, checks every report's bytes against
//! the committed reference, and prints the end-to-end metrics
//! (`--trace 0`) or, after a span-recorded run, the per-layer metrics
//! (`--trace 1`). The last stdout line is the result object; `run.py`
//! adds `peak_rss_mb` to it. `--worker` is the process executor's child,
//! and `--make-reference` writes the reference file.

mod check;
mod metrics;
mod pipeline;
mod trace;
mod workload;

use check::{Digest, Reference};
use metrics::{median, Values, END_TO_END, PER_LAYER};
use pipeline::{Certified, Context};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Layout, Workload};

/// The committed reference, built into the binary.
const REFERENCE: &str = include_str!("../reference.tsv");

/// Where reports and span files go, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
         \x20      perfbench --worker --shard I/N --matrix FAMILY@S [--threads T] [--announce-only]\n\
         \x20      perfbench --make-reference FILE --nn-lab PATH\n\
         workloads: {}",
        workload::WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, Option<&str>> = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = match flag {
            "--worker" | "--announce-only" => None,
            "--workload" | "--seed" | "--seconds" | "--trace" | "--shard" | "--matrix"
            | "--threads" | "--make-reference" | "--nn-lab" => {
                i += 1;
                match args.get(i) {
                    Some(v) => Some(v.as_str()),
                    None => return usage(),
                }
            }
            _ => {
                eprintln!("perfbench: unknown argument {flag:?}");
                return usage();
            }
        };
        flags.insert(flag, value);
        i += 1;
    }
    let result = if flags.contains_key("--worker") {
        worker(&flags)
    } else if let Some(out) = value(&flags, "--make-reference") {
        value(&flags, "--nn-lab").map_or(Err(String::new()), |p| make_reference(out, p))
    } else {
        bench(&flags)
    };
    match result {
        Ok(code) => code,
        Err(msg) if msg.is_empty() => usage(),
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::from(1)
        }
    }
}

/// A flag's value, if it was given one.
fn value<'a>(flags: &BTreeMap<&str, Option<&'a str>>, name: &str) -> Option<&'a str> {
    flags.get(name).copied().flatten()
}

/// A flag's value parsed as `T`; `Err("")` asks for the usage message.
fn parsed<T: std::str::FromStr>(
    flags: &BTreeMap<&str, Option<&str>>,
    name: &str,
) -> Result<Option<T>, String> {
    match value(flags, name) {
        None => Ok(None),
        Some(v) => v.parse().map(Some).map_err(|_| {
            eprintln!("perfbench: bad value {v:?} for {name}");
            String::new()
        }),
    }
}

/// `--worker`: one shard of the process executor's plan, as
/// `nn-lab --worker` runs it (`run_shard_with_progress` without the
/// heartbeat, then the shard report JSON on stdout). It takes
/// `--matrix FAMILY@S` because the benchmark's specs carry a seed axis
/// no named matrix has. With `--announce-only` it exits once it has
/// announced its shard: the set-up measurement spawns workers that way.
fn worker(flags: &BTreeMap<&str, Option<&str>>) -> Result<ExitCode, String> {
    let shard = value(flags, "--shard").ok_or_else(String::new)?;
    let matrix = value(flags, "--matrix").ok_or_else(String::new)?;
    let assignment = nn_lab::CellAssignment::parse(shard)?;
    let spec = workload::parse_worker_matrix_arg(matrix)
        .ok_or_else(|| format!("unknown worker matrix {matrix:?}"))?;
    let threads = parsed::<usize>(flags, "--threads")?.unwrap_or(1).max(1);
    eprintln!(
        "worker shard {}/{} of matrix {:?}: {} of {} cells on {threads} threads",
        assignment.shard,
        assignment.shards,
        matrix,
        assignment.cell_count(spec.cell_count()),
        spec.cell_count(),
    );
    if flags.contains_key("--announce-only") {
        return Ok(ExitCode::SUCCESS);
    }
    let report = nn_lab::run_shard(&spec, &assignment, threads);
    println!("{}", report.to_json());
    Ok(ExitCode::SUCCESS)
}

/// `--make-reference FILE`: digests of every family at every seed-axis
/// value, made with the library's `run_matrix_with_threads`. First it
/// checks that this library route writes what `nn-lab --matrix full`
/// writes, so every reference stands for the user's command.
fn make_reference(out: &str, program: &str) -> Result<ExitCode, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let (json, csv) = (
        format!("{OUT_DIR}/nn-lab-full.json"),
        format!("{OUT_DIR}/nn-lab-full.csv"),
    );
    let status = std::process::Command::new(program)
        .args([
            "--matrix",
            "full",
            "--threads",
            "2",
            "--out",
            &json,
            "--csv",
            &csv,
        ])
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("running {program}: {e}"))?;
    if !status.success() {
        return Err(format!("{program} exited with {status}"));
    }
    let read = |p: &str| std::fs::read(p).map_err(|e| format!("reading {p}: {e}"));
    let full = nn_lab::named_matrix("full").expect("the full matrix is named");
    let library = nn_lab::run_matrix_with_threads(&full, 2);
    if Digest::of(&read(&json)?) != Digest::of(library.to_json().as_bytes())
        || Digest::of(&read(&csv)?) != Digest::of(library.to_csv().as_bytes())
    {
        return Err("nn-lab --matrix full differs from the library's full report".into());
    }
    eprintln!("reference: nn-lab --matrix full matches the library");

    let mut text = format!(
        "# Reference digests of every report the benchmark can produce, made by\n\
         # `python3 perfbench/run.py --make-reference`.\n{}\n",
        check::HEADER
    );
    for s in 1..=workload::REFERENCE_SEEDS {
        for family in workload::FAMILIES {
            let spec = workload::family_spec(family, s).expect("family has a spec");
            let report = nn_lab::run_matrix_with_threads(&spec, 2);
            let r = Reference {
                family: family.to_string(),
                seed_axis: s,
                json: Digest::of(report.to_json().as_bytes()),
                csv: Digest::of(report.to_csv().as_bytes()),
            };
            text.push_str(&r.line());
            text.push('\n');
        }
        eprintln!("reference: seed axis {s} done");
    }
    std::fs::write(out, text).map_err(|e| format!("writing {out}: {e}"))?;
    Ok(ExitCode::SUCCESS)
}

/// Set-ups before each untraced report. They are spread over the run,
/// not made in one burst at its start, so that their median is drawn
/// from the whole run's host load, as the reports' median is.
fn setups_per_report(w: &Workload) -> usize {
    match w.layout {
        Layout::Threads(_) => 8,
        Layout::Workers(_) => 4,
    }
}

/// Tallies cells attempted and failed against the reference.
struct Tally<'a> {
    refs: &'a [Reference],
    family: &'static str,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally<'_> {
    /// Counts one certified report made at seed-axis value `s`: all its
    /// cells fail on a byte mismatch, missing cells fail otherwise.
    fn report(&mut self, s: u64, out: &Certified) {
        self.attempted += out.expected_cells as u64;
        let checked = check::lookup(self.refs, self.family, s)
            .and_then(|reference| check::check(reference, &out.json, &out.csv));
        if let Err(e) = checked {
            self.failed += out.expected_cells as u64;
            self.errors.push(e);
        } else if out.parsed_cells != out.expected_cells {
            self.failed += out.expected_cells.abs_diff(out.parsed_cells) as u64;
            self.errors.push(format!(
                "re-parsed report holds {} of {} cells",
                out.parsed_cells, out.expected_cells
            ));
        }
    }

    /// Counts a run that produced no report.
    fn lost(&mut self, cells: usize, why: String) {
        self.attempted += cells as u64;
        self.failed += cells as u64;
        self.errors.push(why);
    }
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .unwrap_or_else(|_| Err("the pipeline panicked".to_string()))
}

/// `--workload`: one benchmark run.
fn bench(flags: &BTreeMap<&str, Option<&str>>) -> Result<ExitCode, String> {
    let name = value(flags, "--workload").ok_or_else(String::new)?;
    let w = workload::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = parsed(flags, "--seed")?.ok_or_else(String::new)?;
    let seconds: f64 = parsed(flags, "--seconds")?.ok_or_else(String::new)?;
    let traced = match value(flags, "--trace") {
        Some("0") => false,
        Some("1") => true,
        _ => return Err(String::new()),
    };
    let refs = check::parse_references(REFERENCE)?;
    let s = workload::seed_axis(seed);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let ctx = Context {
        workload: w,
        seed_axis: s,
        out_dir: PathBuf::from(OUT_DIR),
        exe: std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?,
    };
    let spec = workload::family_spec(w.family, s).expect("family has a spec");
    let cells = spec.cell_count();

    let mut tally = Tally {
        refs: &refs,
        family: w.family,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    // Untraced matrices back to back, the i-th at the seed-axis value of
    // seed + i, so a run covers most seed-axis values; a traced run leaves
    // half its time to the traced matrices.
    let budget = if traced { seconds / 2.0 } else { seconds };
    let start = Instant::now();
    let mut runs: Vec<pipeline::Untraced> = Vec::new();
    let (mut setup, mut spawn) = (Vec::new(), Vec::new());
    while runs.is_empty() || start.elapsed().as_secs_f64() < budget {
        let at = workload::seed_axis(seed.wrapping_add(runs.len() as u64));
        for _ in 0..setups_per_report(w) {
            let (s, e) = pipeline::setup_once(&ctx.at(at))?;
            setup.push(s);
            spawn.push(e);
        }
        match guarded(|| pipeline::untraced(&ctx.at(at))) {
            Ok((out, run)) => {
                tally.report(at, &out);
                runs.push(run);
            }
            Err(e) => {
                tally.lost(cells, e);
                break;
            }
        }
    }
    let walls: Vec<f64> = runs.iter().map(|r| r.wall).collect();
    let events: u64 = runs.iter().map(|r| r.sim_events).sum();
    println!(
        "workload {} seed {seed} (seed axis {s} on): {} untraced reports of {cells} cells, \
         {events} sim events in all, {} set-ups",
        w.name,
        runs.len(),
        setup.len()
    );

    let values = if traced {
        let next = seed.wrapping_add(runs.len() as u64);
        per_layer(&ctx, &mut tally, &spec, &walls, &spawn, next, budget)?
    } else {
        let reports: Vec<f64> = runs.iter().map(|r| r.report).collect();
        let rates: Vec<f64> = runs
            .iter()
            .map(|r| r.sim_events as f64 / r.execute)
            .collect();
        let mut v = Values::new();
        v.insert("wall_s", median(&walls));
        v.insert("setup_s", median(&setup));
        v.insert("report_s", median(&reports));
        v.insert("sim_events_per_s", median(&rates));
        v.insert(
            "cell_ok_ratio",
            (tally.attempted - tally.failed) as f64 / tally.attempted as f64,
        );
        v
    };
    let declared: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in declared {
        if let Some(v) = values.get(name) {
            println!("  {name:<32} {v:>16.6} {unit}");
        }
    }
    for e in &tally.errors {
        eprintln!("perfbench: {e}");
    }
    let correct = tally.errors.is_empty();
    println!(
        "{}",
        metrics::result_line(correct, tally.attempted, tally.failed, declared, &values)
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// The traced half of a `--trace 1` run: traced matrices back to back
/// for `budget` seconds, continuing the seed sequence at `seed`, then
/// the paired-stack and keygen measurements.
fn per_layer(
    ctx: &Context<'_>,
    tally: &mut Tally<'_>,
    spec: &nn_lab::ExperimentSpec,
    untraced_walls: &[f64],
    spawn: &[f64],
    seed: u64,
    budget: f64,
) -> Result<Values, String> {
    let start = Instant::now();
    let mut runs = Vec::new();
    while runs.is_empty() || start.elapsed().as_secs_f64() < budget {
        let at = workload::seed_axis(seed.wrapping_add(runs.len() as u64));
        let run = guarded(|| pipeline::traced(&ctx.at(at), runs.len() as u32))?;
        tally.report(at, &run.out);
        runs.push(run);
    }
    // One list for every traced run, parent indices rebased into it.
    let mut spans: Vec<trace::Span> = Vec::new();
    for run in &runs {
        let base = spans.len();
        spans.extend(run.spans.iter().map(|s| trace::Span {
            parent: s.parent.map(|p| p + base),
            ..s.clone()
        }));
    }
    let spans_path = ctx.out_dir.join(format!("{}.spans.tsv", ctx.workload.name));
    std::fs::write(&spans_path, trace::to_tsv(&spans))
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;

    let mut values =
        metrics::median_per_metric(&runs.iter().map(|r| r.values.clone()).collect::<Vec<_>>());
    let traced_walls: Vec<f64> = runs.iter().map(|r| r.wall).collect();
    values.insert(
        "trace.overhead_s",
        median(&traced_walls) - median(untraced_walls),
    );
    if matches!(ctx.workload.layout, Layout::Workers(_)) {
        values.insert("executor.spawn_s", median(spawn));
    }

    let pairs = pipeline::paired_cells(spec);
    let ms = |f: fn(&(f64, f64)) -> f64| pairs.iter().map(|p| f(p) * 1e3).collect::<Vec<_>>();
    values.insert("cell.plain.ms.p50", median(&ms(|p| p.0)));
    values.insert("cell.neutralized.ms.p50", median(&ms(|p| p.1)));
    values.insert("stack.neutralized_extra_ms.p50", median(&ms(|p| p.1 - p.0)));

    // Both key sizes a neutralized cell generates at; they are equal in
    // every tuning the workloads use.
    let mut keygen = pipeline::keygen_ms(spec.tuning.e2e_rsa_bits, 32, seed);
    keygen.extend(pipeline::keygen_ms(spec.tuning.onetime_rsa_bits, 32, seed));
    let mean_keygen_ms = keygen.iter().sum::<f64>() / keygen.len() as f64;
    let keygens: u64 = runs[0].cells.iter().map(|c| c.keygens).sum();
    values.insert("crypto.keygen_ms.p50", median(&keygen));
    values.insert("crypto.keygens", keygens as f64);
    values.insert(
        "crypto.keygen_share",
        keygens as f64 * mean_keygen_ms / (values["executor.busy_s"] * 1e3),
    );

    print_layers(&spans, &runs, untraced_walls);
    Ok(values)
}

/// The per-layer table of the traced runs, beside the untraced wall.
fn print_layers(spans: &[trace::Span], runs: &[pipeline::Traced], untraced_walls: &[f64]) {
    let n = runs.len() as f64;
    let layers = trace::layers(spans);
    let wall = runs.iter().map(|r| r.wall).sum::<f64>() / n;
    println!(
        "  per layer, mean of {} traced run(s) (traced wall {wall:.4} s, untraced wall {:.4} s):",
        runs.len(),
        median(untraced_walls)
    );
    println!(
        "  {:<16} {:>7} {:>12} {:>12} {:>7}",
        "layer", "spans", "total s", "self s", "self %"
    );
    for (name, l) in &layers {
        println!(
            "  {name:<16} {:>7} {:>12.6} {:>12.6} {:>6.1}%",
            l.count as f64 / n,
            l.total / n,
            l.self_time / n,
            100.0 * l.self_time / n / wall
        );
    }
    let report_layers: f64 = [
        "shard.to_json",
        "shard.from_json",
        "merge",
        "verify",
        "finalize",
        "matrix.to_json",
        "matrix.to_csv",
        "io.write",
        "io.reread",
        "json.parse",
    ]
    .iter()
    .map(|name| {
        // Only spans on the run's path, not the off-path measurements.
        spans
            .iter()
            .filter(|s| s.name == *name && s.parent.is_some_and(|p| spans[p].name == "run"))
            .map(trace::Span::duration)
            .sum::<f64>()
    })
    .sum::<f64>()
        / n;
    let report = runs.iter().map(|r| r.report).sum::<f64>() / n;
    println!(
        "  report layers on the path sum to {report_layers:.6} s of a traced report_s of \
         {report:.6} s"
    );
}
