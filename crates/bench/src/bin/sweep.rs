//! `sweep` — run, resume and shard grid sweeps, and serve their frozen
//! tables, from the command line.
//!
//! ```text
//! sweep run    --grid NAME [--out PATH] [--max-cells N] [--fresh]
//!              [--reuse OLD.jsonl]
//! sweep resume --grid NAME [--out PATH]
//! sweep shard  --grid NAME --shards N [--out PATH]
//! sweep queen  --grid NAME --listen ADDR [--resume PATH] [--chunk N]
//!              [--ttl-ms MS] [--max-cells N] [--fresh] [--status-ms MS]
//!              [--chaos-seed N]
//! sweep worker --connect ADDR [--name LABEL] [--retry-ms MS]
//!              [--chaos-seed N]
//! sweep freeze --grid NAME --out SNAP.tsv [--cell I | --scenario L
//!              --policy L --seed N]
//! sweep serve  --table SNAP.tsv --listen ADDR [--states N] [--chaos-seed N]
//! sweep clients --connect ADDR [-n N] [--batches N] [--batch N] [--seed N]
//!              [--verify F1,F2] [--swap PATH [--swap-after J]]
//!              [--hist OUT.jsonl] [--shutdown] [--chaos-seed N]
//! ```
//!
//! * `run` is resumable by default: cells already in the checkpoint at
//!   `--out` (default `<grid>.jsonl`) are skipped, fresh cells run on a
//!   work-stealing thread pool and are appended with an fsync each, and a
//!   completed run finalises the file in canonical order — byte-identical
//!   to an uninterrupted serial run.
//!   `--max-cells N` stops after N fresh cells (the deterministic
//!   stand-in for a kill; CI uses it for the resume smoke), `--fresh`
//!   deletes the checkpoint first.
//! * `resume` is `run` spelled for humans reading a script.
//! * A complete `run`, `resume`, `shard` or `queen` of a grid that is a
//!   figure (`paper`, `fig5`, `fig6`, `ablation`, `learners`, `weights`)
//!   prints that figure, rendered from the finished records.
//! * `shard` is a fleet on this machine: a queen on a loopback port and
//!   N `worker` processes of this binary. Like `run`, it resumes the
//!   checkpoint at `--out` and finalises it byte-identical to a serial
//!   run; a worker process that fails fails the run.
//! * `queen` serves the named grid over TCP to `worker` processes on
//!   other hosts (or this one): contiguous cell ranges are leased out,
//!   completed records stream back and are checkpointed exactly as `run`
//!   does, silent workers get their cells speculatively re-leased, and
//!   a killed queen re-run on the same `--resume` path picks up where it
//!   stopped. `worker` connects, rebuilds the grid the queen names, and
//!   works leases until the queen says done. See the "Fleet" section of
//!   docs/ARCHITECTURE.md.
//! * `run --reuse OLD.jsonl` seeds the checkpoint from a *different*
//!   (smaller) grid's finished file by content key (scenario label,
//!   policy label, seed), so growing a grid recomputes only new cells.
//! * `freeze` runs one cell of the named grid and writes the trained
//!   policy's frozen tables as a provenance-stamped TSV snapshot (grid
//!   name, cell coordinates, structural hash — see
//!   [`SnapshotMeta`]), ready for `serve`.
//! * `serve` loads a frozen snapshot and answers batched `DECIDE`
//!   requests over the `serve/1` line protocol until a client sends
//!   `SHUTDOWN`; a `SWAP` installs a new snapshot atomically without
//!   dropping in-flight requests. `clients` is the matching load
//!   generator: N connections hammer the server, optionally re-checking
//!   every response against local dispatch (`--verify`) and exercising a
//!   hot swap mid-traffic (`--swap`). See the "Serving" section of
//!   docs/ARCHITECTURE.md.
//! * `--chaos-seed N` (on `queen`, `worker`, `serve`, `clients`) wraps
//!   that process's sockets in the seeded fault-injecting transport from
//!   `cohmeleon-chaos`: split writes, read stalls, abrupt resets,
//!   duplicated fire-and-forget lines, reordered heartbeats. Every
//!   injected fault is logged with its `(seed, conn, op)` coordinate and
//!   the same seed replays the same schedule — see the "Chaos testing"
//!   section of docs/ARCHITECTURE.md.
//!
//! Grid names are deterministic functions of `(name, COHMELEON_FAST)` —
//! see `cohmeleon_bench::sweeps` for why that is load-bearing. The
//! queen's scale wins for fleet runs: workers rebuild at whatever scale
//! the queen's HELLO names, regardless of their own environment.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use cohmeleon_bench::sweeps::{named_experiment, print_figure, GRIDS};
use cohmeleon_bench::Scale;
use cohmeleon_chaos::FaultPlan;
use cohmeleon_core::FrozenSnapshot;
use cohmeleon_exp::{write_snapshot, SnapshotMeta};
use cohmeleon_exp::{Checkpoint, SweepGrid, WorkStealing};
use cohmeleon_fleet::{run_local, run_queen, run_worker, QueenOptions, WorkerOptions};
use cohmeleon_serve::{run_load, run_server, LoadOptions, ServeClient, ServeOptions, SwapPlan};

fn usage() -> String {
    let mut out = String::from(
        "usage:\n  sweep run    --grid NAME [--out PATH] [--max-cells N] [--fresh]\n               [--reuse OLD.jsonl]\n  sweep resume --grid NAME [--out PATH]\n  sweep shard  --grid NAME --shards N [--out PATH]\n               (a local queen + N worker processes; resumes --out like run)\n  sweep queen  --grid NAME --listen ADDR [--resume PATH] [--chunk N]\n               [--ttl-ms MS] [--max-cells N] [--fresh] [--status-ms MS]\n               [--chaos-seed N]\n  sweep worker --connect ADDR [--name LABEL] [--retry-ms MS] [--chaos-seed N]\n  sweep freeze --grid NAME --out SNAP.tsv\n               [--cell I | --scenario LABEL --policy LABEL --seed N]\n  sweep serve  --table SNAP.tsv --listen ADDR [--states N] [--chaos-seed N]\n  sweep clients --connect ADDR [-n N] [--batches N] [--batch N] [--seed N]\n               [--verify FILE,FILE] [--swap PATH [--swap-after J]]\n               [--hist OUT.jsonl] [--shutdown] [--chaos-seed N]\n\ngrids (COHMELEON_FAST=1 for reduced scale):\n",
    );
    for grid in GRIDS {
        out.push_str(&format!("  {:<10} {}\n", grid.name, grid.description));
    }
    out
}

/// Parses the value of a `--chaos-seed N` flag into a fault plan.
fn parse_chaos_seed(value: Option<&String>) -> Result<FaultPlan, String> {
    let seed: u64 = value
        .ok_or("--chaos-seed needs a seed")?
        .parse()
        .map_err(|e| format!("--chaos-seed: {e}"))?;
    Ok(FaultPlan::new(seed))
}

struct CommonArgs {
    grid: String,
    out: Option<PathBuf>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match command.as_str() {
        "run" | "resume" => cmd_run(rest),
        "shard" => cmd_shard(rest),
        "queen" => cmd_queen(rest),
        "worker" => cmd_worker(rest),
        "freeze" => cmd_freeze(rest),
        "serve" => cmd_serve(rest),
        "clients" => cmd_clients(rest),
        "--help" | "-h" | "help" => {
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sweep: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Builds the named grid and resolves its checkpoint path: `--out`, or
/// the conventional `<name>.jsonl`.
fn build_grid(common: &CommonArgs) -> Result<(SweepGrid, PathBuf), String> {
    let grid = named_experiment(&common.grid, Scale::from_env())?
        .build()
        .map_err(|e| e.to_string())?;
    let out = common
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(format!("{}.jsonl", common.grid)));
    Ok((grid, out))
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let mut common = CommonArgs {
        grid: String::new(),
        out: None,
    };
    let mut max_cells = usize::MAX;
    let mut fresh = false;
    let mut reuse: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--grid" => common.grid = it.next().ok_or("--grid needs a name")?.clone(),
            "--out" => common.out = Some(PathBuf::from(it.next().ok_or("--out needs a path")?)),
            "--max-cells" => {
                max_cells = it
                    .next()
                    .ok_or("--max-cells needs a count")?
                    .parse()
                    .map_err(|e| format!("--max-cells: {e}"))?;
            }
            "--fresh" => fresh = true,
            "--reuse" => {
                reuse = Some(PathBuf::from(it.next().ok_or("--reuse needs a path")?));
            }
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if common.grid.is_empty() {
        return Err(format!("--grid is required\n{}", usage()));
    }
    let (grid, out) = build_grid(&common)?;

    if fresh {
        match std::fs::remove_file(&out) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("cannot remove {}: {e}", out.display())),
        }
    }

    if let Some(old) = &reuse {
        let report = Checkpoint::reuse_from(&out, old, &grid)
            .map_err(|e| format!("--reuse {}: {e}", old.display()))?;
        println!(
            "sweep: reused {} cells from {} ({} unmatched, {} already present)",
            report.reused,
            old.display(),
            report.unmatched,
            report.already
        );
    }

    let outcome = grid
        .run_resumable_capped(&out, &WorkStealing::new(), max_cells)
        .map_err(|e| format!("{}: {e}", out.display()))?;
    if outcome.dropped_tail {
        println!("sweep: dropped a torn tail line (cell re-run)");
    }
    println!(
        "sweep: `{}`: {} cells reused, {} run → {}",
        common.grid,
        outcome.reused,
        outcome.ran,
        out.display()
    );
    if outcome.complete {
        print_figure(&common.grid, &outcome.records);
    } else {
        println!(
            "sweep: interrupted at --max-cells {max_cells}; finish with `sweep resume --grid {} --out {}`",
            common.grid,
            out.display()
        );
    }
    Ok(())
}

fn cmd_shard(args: &[String]) -> Result<(), String> {
    let mut common = CommonArgs {
        grid: String::new(),
        out: None,
    };
    let mut shards = 0usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--grid" => common.grid = it.next().ok_or("--grid needs a name")?.clone(),
            "--out" => common.out = Some(PathBuf::from(it.next().ok_or("--out needs a path")?)),
            "--shards" => {
                shards = it
                    .next()
                    .ok_or("--shards needs a count")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
            }
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if common.grid.is_empty() {
        return Err(format!("--grid is required\n{}", usage()));
    }
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let (grid, out) = build_grid(&common)?;
    let program =
        std::env::current_exe().map_err(|e| format!("cannot resolve this executable: {e}"))?;
    let options = QueenOptions::new(&common.grid, matches!(Scale::from_env(), Scale::Fast));
    let report = run_local(&grid, &out, &options, shards, |addr| {
        let mut worker = Command::new(&program);
        worker.args(["worker", "--connect", addr]);
        worker
    })
    .map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "sweep: `{}` over {shards} worker processes: {} cells reused, {} run → {}",
        common.grid,
        report.reused,
        report.ran,
        out.display()
    );
    if report.complete {
        print_figure(&common.grid, &report.records);
    }
    Ok(())
}

fn cmd_queen(args: &[String]) -> Result<(), String> {
    let mut common = CommonArgs {
        grid: String::new(),
        out: None,
    };
    let mut listen = String::new();
    let mut chunk: Option<usize> = None;
    let mut ttl_ms = 10_000u64;
    let mut max_cells = usize::MAX;
    let mut fresh = false;
    let mut status_ms = 5_000u64;
    let mut chaos: Option<FaultPlan> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--grid" => common.grid = it.next().ok_or("--grid needs a name")?.clone(),
            "--listen" => listen = it.next().ok_or("--listen needs host:port")?.clone(),
            // --resume and --out are synonyms: both name the checkpoint.
            "--resume" | "--out" => {
                common.out = Some(PathBuf::from(it.next().ok_or("--resume needs a path")?));
            }
            "--chunk" => {
                chunk = Some(
                    it.next()
                        .ok_or("--chunk needs a count")?
                        .parse()
                        .map_err(|e| format!("--chunk: {e}"))?,
                );
            }
            "--ttl-ms" => {
                ttl_ms = it
                    .next()
                    .ok_or("--ttl-ms needs milliseconds")?
                    .parse()
                    .map_err(|e| format!("--ttl-ms: {e}"))?;
            }
            "--max-cells" => {
                max_cells = it
                    .next()
                    .ok_or("--max-cells needs a count")?
                    .parse()
                    .map_err(|e| format!("--max-cells: {e}"))?;
            }
            "--fresh" => fresh = true,
            // 0 disables the periodic status line entirely.
            "--status-ms" => {
                status_ms = it
                    .next()
                    .ok_or("--status-ms needs milliseconds")?
                    .parse()
                    .map_err(|e| format!("--status-ms: {e}"))?;
            }
            "--chaos-seed" => chaos = Some(parse_chaos_seed(it.next())?),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if common.grid.is_empty() {
        return Err(format!("--grid is required\n{}", usage()));
    }
    if listen.is_empty() {
        return Err(format!("--listen is required\n{}", usage()));
    }
    let (grid, out) = build_grid(&common)?;
    if fresh {
        match std::fs::remove_file(&out) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("cannot remove {}: {e}", out.display())),
        }
    }

    let listener = std::net::TcpListener::bind(&listen)
        .map_err(|e| format!("cannot listen on {listen}: {e}"))?;
    let addr = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or(listen);
    let options = QueenOptions {
        chunk,
        ttl: std::time::Duration::from_millis(ttl_ms),
        max_cells,
        status_every: (status_ms > 0).then(|| std::time::Duration::from_millis(status_ms)),
        chaos,
        ..QueenOptions::new(&common.grid, matches!(Scale::from_env(), Scale::Fast))
    };
    println!(
        "sweep: queen serving `{}` ({} cells) on {addr}; connect workers with `sweep worker --connect {addr}`",
        common.grid,
        grid.num_cells()
    );
    let report = run_queen(&grid, listener, &out, &options)
        .map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "sweep: queen `{}`: {} reused, {} run by {} worker(s), {} duplicate(s) reconciled, {} speculative lease(s) → {}",
        common.grid,
        report.reused,
        report.ran,
        report.workers,
        report.duplicates,
        report.speculative,
        out.display()
    );
    if report.complete {
        print_figure(&common.grid, &report.records);
    } else {
        println!(
            "sweep: interrupted at --max-cells {max_cells}; finish with `sweep queen --grid {} --listen {} --resume {}` (or `sweep resume`)",
            common.grid,
            addr,
            out.display()
        );
    }
    Ok(())
}

fn cmd_worker(args: &[String]) -> Result<(), String> {
    let mut connect = String::new();
    let mut options = WorkerOptions::new(format!("worker-{}", std::process::id()));
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--connect" => connect = it.next().ok_or("--connect needs host:port")?.clone(),
            "--name" => options.name = it.next().ok_or("--name needs a label")?.clone(),
            "--retry-ms" => {
                let ms: u64 = it
                    .next()
                    .ok_or("--retry-ms needs milliseconds")?
                    .parse()
                    .map_err(|e| format!("--retry-ms: {e}"))?;
                options.connect_retry = std::time::Duration::from_millis(ms);
            }
            // Fault injection for the CI smoke and tests: die mid-lease
            // after N records, without a DONE. Deliberately undocumented
            // in the usage text.
            "--fail-after" => {
                options.fail_after = Some(
                    it.next()
                        .ok_or("--fail-after needs a count")?
                        .parse()
                        .map_err(|e| format!("--fail-after: {e}"))?,
                );
            }
            "--chaos-seed" => options.chaos = Some(parse_chaos_seed(it.next())?),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if connect.is_empty() {
        return Err(format!("--connect is required\n{}", usage()));
    }

    // Rebuild whatever grid the queen names, at the queen's scale — the
    // worker's own COHMELEON_FAST is deliberately ignored so a fleet
    // can't be torn by mismatched environments.
    let resolve = |name: &str, fast: bool| {
        named_experiment(name, if fast { Scale::Fast } else { Scale::Full })?
            .build()
            .map_err(|e| e.to_string())
    };
    let report = run_worker(&connect, resolve, &options).map_err(|e| format!("{connect}: {e}"))?;
    println!(
        "sweep: worker `{}` on `{}`: {} cells over {} lease(s){}",
        options.name,
        report.grid,
        report.cells,
        report.leases,
        if report.aborted {
            " — aborted by --fail-after"
        } else {
            ""
        }
    );
    Ok(())
}

fn cmd_freeze(args: &[String]) -> Result<(), String> {
    let mut grid_name = String::new();
    let mut out: Option<PathBuf> = None;
    let mut cell_index: Option<usize> = None;
    let mut scenario: Option<String> = None;
    let mut policy = "cohmeleon".to_owned();
    let mut seed: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--grid" => grid_name = it.next().ok_or("--grid needs a name")?.clone(),
            "--out" => out = Some(PathBuf::from(it.next().ok_or("--out needs a path")?)),
            "--cell" => {
                cell_index = Some(
                    it.next()
                        .ok_or("--cell needs an index")?
                        .parse()
                        .map_err(|e| format!("--cell: {e}"))?,
                );
            }
            "--scenario" => scenario = Some(it.next().ok_or("--scenario needs a label")?.clone()),
            "--policy" => policy = it.next().ok_or("--policy needs a label")?.clone(),
            "--seed" => {
                seed = Some(
                    it.next()
                        .ok_or("--seed needs a value")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if grid_name.is_empty() {
        return Err(format!("--grid is required\n{}", usage()));
    }
    let out = out.ok_or_else(|| format!("--out is required\n{}", usage()))?;
    let grid = named_experiment(&grid_name, Scale::from_env())?
        .build()
        .map_err(|e| e.to_string())?;

    let cell = match cell_index {
        Some(i) => {
            if i >= grid.num_cells() {
                return Err(format!(
                    "--cell {i} out of range: `{grid_name}` has {} cells",
                    grid.num_cells()
                ));
            }
            grid.cell_at(i)
        }
        None => {
            let scenario = scenario
                .as_deref()
                .unwrap_or_else(|| grid.scenarios()[0].label.as_str());
            let seed = seed.unwrap_or(grid.seeds()[0]);
            grid.cells()
                .find(|c| {
                    grid.scenarios()[c.scenario].label == scenario
                        && grid.policies()[c.policy].policy_label() == policy
                        && grid.seeds()[c.seed] == seed
                })
                .ok_or_else(|| {
                    format!(
                        "no cell matches scenario `{scenario}` policy `{policy}` seed {seed} in `{grid_name}`"
                    )
                })?
        }
    };

    let (result, tables) = grid.freeze_cell(cell);
    let tables = tables.ok_or_else(|| {
        format!(
            "policy `{}` exports no learned tables (only learning policies can be frozen)",
            result.policy
        )
    })?;
    let meta = SnapshotMeta {
        grid: grid_name.clone(),
        scenario: result.scenario.clone(),
        policy: result.policy.clone(),
        seed: result.seed,
        structural_hash: result.result.structural_hash(),
    };
    write_snapshot(&out, &meta, &tables)
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!(
        "sweep: froze `{}` cell (scenario `{}`, policy `{}`, seed {}) → {}",
        grid_name,
        result.scenario,
        result.policy,
        result.seed,
        out.display()
    );
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut table: Option<PathBuf> = None;
    let mut listen = String::new();
    let mut states = cohmeleon_core::State::COUNT;
    let mut chaos: Option<FaultPlan> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--table" => table = Some(PathBuf::from(it.next().ok_or("--table needs a path")?)),
            "--listen" => listen = it.next().ok_or("--listen needs host:port")?.clone(),
            "--states" => {
                states = it
                    .next()
                    .ok_or("--states needs a count")?
                    .parse()
                    .map_err(|e| format!("--states: {e}"))?;
            }
            "--chaos-seed" => chaos = Some(parse_chaos_seed(it.next())?),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    let table = table.ok_or_else(|| format!("--table is required\n{}", usage()))?;
    if listen.is_empty() {
        return Err(format!("--listen is required\n{}", usage()));
    }
    let text = std::fs::read_to_string(&table)
        .map_err(|e| format!("cannot read {}: {e}", table.display()))?;
    match SnapshotMeta::parse(&text) {
        Ok(Some(meta)) => println!("sweep: snapshot provenance: {meta}"),
        Ok(None) => {}
        Err(e) => eprintln!("sweep: ignoring malformed provenance: {e}"),
    }
    let snapshot =
        FrozenSnapshot::parse(&text, states).map_err(|e| format!("{}: {e}", table.display()))?;
    let listener = std::net::TcpListener::bind(&listen)
        .map_err(|e| format!("cannot listen on {listen}: {e}"))?;
    let addr = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or(listen);
    println!(
        "sweep: serving {} ({:?} scope, {} states, {} tables) on {addr}; connect with `sweep clients --connect {addr}`",
        table.display(),
        snapshot.scope(),
        snapshot.states(),
        snapshot.num_tables()
    );
    let options = ServeOptions { chaos };
    let report = run_server(listener, snapshot, &options).map_err(|e| format!("serve: {e}"))?;
    println!(
        "sweep: served {} decisions in {} batches to {} client(s), {} swap(s), {} error(s), final version {}",
        report.decisions,
        report.batches,
        report.clients,
        report.swaps,
        report.errors,
        report.final_version
    );
    Ok(())
}

fn cmd_clients(args: &[String]) -> Result<(), String> {
    let mut connect = String::new();
    let mut options = LoadOptions::default();
    let mut verify_paths: Vec<PathBuf> = Vec::new();
    let mut swap_path: Option<String> = None;
    let mut swap_after = 0usize;
    let mut hist: Option<PathBuf> = None;
    let mut shutdown = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--connect" => connect = it.next().ok_or("--connect needs host:port")?.clone(),
            "-n" | "--clients" => {
                options.clients = it
                    .next()
                    .ok_or("--clients needs a count")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?;
            }
            "--batches" => {
                options.batches = it
                    .next()
                    .ok_or("--batches needs a count")?
                    .parse()
                    .map_err(|e| format!("--batches: {e}"))?;
            }
            "--batch" => {
                options.batch_size = it
                    .next()
                    .ok_or("--batch needs a size")?
                    .parse()
                    .map_err(|e| format!("--batch: {e}"))?;
            }
            "--seed" => {
                options.seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--verify" => {
                let list = it.next().ok_or("--verify needs a comma-separated list")?;
                verify_paths.extend(list.split(',').map(PathBuf::from));
            }
            "--swap" => swap_path = Some(it.next().ok_or("--swap needs a path")?.clone()),
            "--swap-after" => {
                swap_after = it
                    .next()
                    .ok_or("--swap-after needs a batch count")?
                    .parse()
                    .map_err(|e| format!("--swap-after: {e}"))?;
            }
            "--hist" => hist = Some(PathBuf::from(it.next().ok_or("--hist needs a path")?)),
            "--shutdown" => shutdown = true,
            "--chaos-seed" => options.chaos = Some(parse_chaos_seed(it.next())?),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if connect.is_empty() {
        return Err(format!("--connect is required\n{}", usage()));
    }
    options.swap = swap_path.map(|path| SwapPlan {
        path,
        after_batches: swap_after,
    });

    // One probe handshake learns the server's state-space cardinality, so
    // --verify files parse against the same shape the server dispatches.
    let states = {
        let probe =
            ServeClient::connect(&connect, "probe").map_err(|e| format!("{connect}: {e}"))?;
        probe.states()
    };
    for path in &verify_paths {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        options.verify.push(
            FrozenSnapshot::parse(&text, states).map_err(|e| format!("{}: {e}", path.display()))?,
        );
    }

    let report = run_load(&connect, &options).map_err(|e| format!("{connect}: {e}"))?;
    let h = &report.histogram;
    println!(
        "sweep: {} clients × {} batches × {}: {} decisions in {:.2}s ({:.0}/s) | batch RTT p50 {}ns p99 {}ns p999 {}ns | versions {:?} | {} verified mismatches, {} unverified",
        options.clients,
        options.batches,
        options.batch_size,
        report.decisions,
        report.elapsed.as_secs_f64(),
        report.throughput(),
        h.p50(),
        h.p99(),
        h.p999(),
        report.versions_seen,
        report.mismatches,
        report.unverified
    );
    if options.chaos.is_some() {
        println!(
            "sweep: chaos: survived {} connection error(s), verified {} duplicated repl(ies)",
            report.conn_errors, report.dup_replies
        );
    }
    if let Some(hist) = &hist {
        use std::io::Write;
        let label = format!("serve_clients_n{}", options.clients);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(hist)
            .map_err(|e| format!("cannot open {}: {e}", hist.display()))?;
        writeln!(file, "{}", h.to_json(&label))
            .map_err(|e| format!("cannot write {}: {e}", hist.display()))?;
    }
    if shutdown {
        ServeClient::connect(&connect, "shutdown")
            .and_then(|c| c.shutdown())
            .map_err(|e| format!("shutdown: {e}"))?;
        println!("sweep: server shut down");
    }
    if report.mismatches > 0 {
        return Err(format!(
            "{} responses disagreed with local frozen dispatch",
            report.mismatches
        ));
    }
    Ok(())
}
