//! The serve workload: a closed loop of batched `DECIDE` requests against
//! a snapshot frozen from a trained Cohmeleon cell, every response
//! verified against local dispatch.

use std::net::TcpListener;
use std::time::Instant;

use cohmeleon_core::{FrozenSnapshot, State};
use cohmeleon_exp::{Experiment, PolicyKind};
use cohmeleon_serve::{
    run_load, run_server, LoadOptions, LoadReport, ServeClient, ServeOptions, ServerReport,
};
use cohmeleon_soc::config::soc1;
use cohmeleon_workloads::generator::{generate_app, GeneratorParams};

use crate::stats::cpus;
use crate::trace::{spanned, Tracer};

/// Queries per `DECIDE` batch.
pub const BATCH: usize = 16;
/// Batches each client sends per pass.
pub const BATCHES_PER_PASS: usize = 2_000;
/// Training iterations of the frozen cell.
pub const TRAIN_ITERATIONS: usize = 2;

/// Trains the soc1 × quick Cohmeleon cell for `seed` and freezes it into
/// a servable snapshot. Also returns the seconds spent generating
/// applications.
pub fn snapshot(seed: u64) -> Result<(FrozenSnapshot, f64), String> {
    let config = soc1();
    let start = Instant::now();
    let train = generate_app(&config, &GeneratorParams::quick(), 1);
    let test = generate_app(&config, &GeneratorParams::quick(), 2);
    let generate_s = start.elapsed().as_secs_f64();
    let grid = Experiment::train_test(config, train, test)
        .policy_kinds([PolicyKind::Cohmeleon])
        .seed(seed)
        .train_iterations(TRAIN_ITERATIONS)
        .build()
        .expect("serve grid is non-empty");
    let (_, tables) = grid.freeze_cell(grid.cell_at(0));
    let tables = tables.ok_or("cohmeleon cell exported no tables")?;
    let snapshot = FrozenSnapshot::parse(&tables, State::COUNT)
        .map_err(|e| format!("frozen snapshot: {e}"))?;
    Ok((snapshot, generate_s))
}

/// Closed-loop clients: one per two CPUs, so a client and its server
/// handler fit the machine.
pub fn clients() -> usize {
    (cpus() / 2).max(1)
}

/// Serves `snapshot` on a loopback port and calls `passes` with a closure
/// that runs one verified load pass (optionally traced); shuts the
/// server down afterwards, whatever `passes` returned. With a tracer, the
/// server's whole life is one `serve.server` span.
pub fn with_server<T>(
    snapshot: &FrozenSnapshot,
    seed: u64,
    tracer: Option<&Tracer>,
    passes: impl FnOnce(&dyn Fn(Option<(&Tracer, u64)>) -> Result<LoadReport, String>) -> T,
) -> Result<(T, ServerReport), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .to_string();
    let options = LoadOptions {
        clients: clients(),
        batches: BATCHES_PER_PASS,
        batch_size: BATCH,
        seed,
        verify: vec![snapshot.clone()],
        ..LoadOptions::default()
    };
    let pass = |tracer: Option<(&Tracer, u64)>| {
        spanned(tracer, "serve.load", || run_load(&addr, &options))
            .map_err(|e| format!("load: {e}"))
    };
    std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            spanned(tracer.map(|t| (t, 0)), "serve.server", || {
                run_server(listener, snapshot.clone(), &ServeOptions::default())
            })
        });
        let out = passes(&pass);
        let shutdown = ServeClient::connect(&addr, "perfbench-admin").and_then(|c| c.shutdown());
        let report = server.join().expect("server thread panicked");
        shutdown.map_err(|e| format!("shutdown: {e}"))?;
        Ok((out, report.map_err(|e| format!("server: {e}"))?))
    })
}

/// Responses of one pass that failed verification or needed a retry.
pub fn failures(report: &LoadReport) -> u64 {
    report.mismatches + report.unverified + report.conn_errors
}
