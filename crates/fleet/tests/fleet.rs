//! Fleet end-to-end over loopback: queen + worker threads on
//! `127.0.0.1:0` must land the byte-identical canonical JSONL a clean
//! Serial run produces — including with a worker killed mid-lease, with
//! the queen capped ("killed") and resumed, and with a stalled worker
//! whose lease must expire and be speculatively re-dispatched. Raw-socket
//! workers pin the `LEASE` long poll: a request that finds every cell
//! leased gets no reply until cells return to the pool or the run ends.
//! A raw-socket queen pins that a worker rejects a lease outside the
//! grid. `run_local` gets real worker processes from this test binary
//! (see [`worker_process_entry`]) and failing `sh` ones.

use std::io::{self, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use cohmeleon_exp::{
    canonical_jsonl, CellRecord, Checkpoint, Experiment, PolicyKind, Serial, SweepGrid,
};
use cohmeleon_fleet::{
    run_local, run_queen, run_worker, LineReader, QueenOptions, QueenReport, ToQueen, ToWorker,
    WorkerOptions,
};
use cohmeleon_soc::config::soc1;
use cohmeleon_workloads::generator::{generate_app, GeneratorParams};

fn grid_over(policies: &[PolicyKind], seeds: &[u64]) -> SweepGrid {
    let config = soc1();
    let params = GeneratorParams {
        phases: 1,
        ..GeneratorParams::quick()
    };
    let app = generate_app(&config, &params, 1);
    Experiment::evaluate(config, app)
        .policy_kinds(policies.iter().copied())
        .seeds(seeds.iter().copied())
        .build()
        .unwrap()
}

/// Six cheap cells.
fn grid() -> SweepGrid {
    grid_over(&[PolicyKind::FixedNonCoh, PolicyKind::Manual], &[1, 2, 3])
}

/// One cell: a single lease covers the whole grid.
fn one_cell_grid() -> SweepGrid {
    grid_over(&[PolicyKind::FixedNonCoh], &[1])
}

fn tmp_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "cohmeleon-fleet-{name}-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

fn resolver(grid: &SweepGrid) -> impl Fn(&str, bool) -> Result<SweepGrid, String> + '_ {
    |name: &str, _fast: bool| {
        assert_eq!(name, "test-grid");
        Ok(grid.clone())
    }
}

/// Runs a real worker named `name` until the queen says `DONE`.
fn finish(addr: &str, grid: &SweepGrid, name: &str) {
    run_worker(addr, resolver(grid), &WorkerOptions::new(name)).unwrap();
}

/// Runs a queen over `grid` on an ephemeral loopback port while `drive`
/// plays its workers, and returns the queen's report.
fn with_queen(
    grid: &SweepGrid,
    path: &Path,
    options: &QueenOptions,
    drive: impl FnOnce(&str),
) -> QueenReport {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::scope(|scope| {
        let queen = scope.spawn(|| run_queen(grid, listener, path, options));
        drive(&addr);
        queen.join().unwrap().unwrap()
    })
}

/// Asserts the checkpoint at `path` is byte-identical to a clean Serial
/// run of `grid`, then deletes it.
fn assert_serial_bytes(grid: &SweepGrid, path: &Path) {
    let clean = canonical_jsonl(&grid.collect_records(&Serial));
    assert_eq!(std::fs::read_to_string(path).unwrap(), clean);
    std::fs::remove_file(path).unwrap();
}

fn queen_options(ttl_ms: u64) -> QueenOptions {
    QueenOptions {
        ttl: Duration::from_millis(ttl_ms),
        chunk: Some(2),
        ..QueenOptions::new("test-grid", false)
    }
}

/// A worker driven line by line over a raw socket.
struct RawWorker {
    stream: TcpStream,
    reader: LineReader<TcpStream>,
}

impl RawWorker {
    /// Connects and completes the `HELLO` exchange.
    fn join(addr: &str, name: &str) -> RawWorker {
        let stream = TcpStream::connect(addr).unwrap();
        let reader = LineReader::new(stream.try_clone().unwrap());
        let mut worker = RawWorker { stream, reader };
        worker.send(&ToQueen::Hello { name: name.into() }).unwrap();
        assert!(matches!(worker.reply(), ToWorker::Hello { .. }));
        worker
    }

    fn send(&mut self, message: &ToQueen) -> io::Result<()> {
        self.stream
            .write_all(format!("{}\n", message.to_line()).as_bytes())
    }

    fn reply(&mut self) -> ToWorker {
        ToWorker::parse(&self.reader.read_line().unwrap().unwrap()).unwrap()
    }

    /// Asks for a lease and expects one: `(id, start, len)`.
    fn lease(&mut self) -> (u64, usize, usize) {
        self.send(&ToQueen::Lease).unwrap();
        match self.reply() {
            ToWorker::Lease { id, start, len } => (id, start, len),
            other => panic!("expected a lease, got {other:?}"),
        }
    }

    /// Runs dense cell `dense` and streams its record under `lease`.
    fn record(&mut self, grid: &SweepGrid, lease: u64, dense: usize) -> io::Result<()> {
        let record = CellRecord::from_cell(&grid.run_cell(grid.cell_at(dense)));
        self.send(&ToQueen::Record {
            lease,
            json: record.to_json(),
        })
    }

    /// Sends `LEASE` and asserts the queen holds it: a short read
    /// timeout expires before any reply line. Then waits for the reply
    /// with a generous timeout, so a lost wake-up fails instead of
    /// hanging.
    fn park_lease(&mut self) {
        self.send(&ToQueen::Lease).unwrap();
        self.stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let err = self.reader.read_line().unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "expected no reply yet, got {err}"
        );
        self.stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
    }

    /// Closes the connection for real: the socket is shut down, so the
    /// reader's cloned handle cannot keep it open.
    fn hang_up(self) {
        self.stream.shutdown(Shutdown::Both).unwrap();
    }
}

#[test]
fn three_workers_one_killed_mid_lease_still_byte_identical() {
    let grid = grid();
    let path = tmp_path("killed-worker");
    // Short TTL so the killed worker's lease expires within the test.
    let report = with_queen(&grid, &path, &queen_options(300), |addr| {
        // The victim goes first so it deterministically holds a lease,
        // then vanishes after one RECORD — mid-lease, no DONE. Its torn
        // connection returns the unfinished cell to the pool.
        let victim = WorkerOptions {
            fail_after: Some(1),
            ..WorkerOptions::new("victim")
        };
        assert!(run_worker(addr, resolver(&grid), &victim).unwrap().aborted);
        let grid = &grid;
        std::thread::scope(|scope| {
            for name in ["steady-1", "steady-2"] {
                scope.spawn(move || finish(addr, grid, name));
            }
        });
    });

    assert!(report.complete);
    assert_eq!(report.ran + report.reused, grid.num_cells());
    assert!(report.workers >= 3);
    assert_serial_bytes(&grid, &path);
}

#[test]
fn capped_queen_resumes_to_byte_identical() {
    let grid = grid();
    let path = tmp_path("capped-queen");

    // First queen "dies" after 2 fresh cells (the networked sibling of
    // run_resumable_capped's kill stand-in).
    let options = QueenOptions {
        max_cells: 2,
        ..queen_options(2_000)
    };
    let first = with_queen(&grid, &path, &options, |addr| {
        // The worker may exit cleanly (told DONE) or see the queen close
        // the connection first — both are acceptable deaths here.
        let _ = run_worker(addr, resolver(&grid), &WorkerOptions::new("w"));
    });
    assert!(!first.complete);
    assert_eq!(first.ran, 2);

    // A fresh queen on the same checkpoint finishes the grid.
    let second = with_queen(&grid, &path, &queen_options(2_000), |addr| {
        finish(addr, &grid, "w");
    });
    assert!(second.complete);
    assert_eq!(second.reused, 2);
    assert_eq!(second.ran, grid.num_cells() - 2);
    assert_serial_bytes(&grid, &path);
}

/// The checkpoint collapses a duplicated line on load, as overlapping
/// resumes leave behind; the report counts only the duplicate a worker
/// streams during this run.
#[test]
fn duplicates_count_only_what_this_run_reconciled() {
    let grid = grid();
    let path = tmp_path("duplicates");
    let first = CellRecord::from_cell(&grid.run_cell(grid.cell_at(0))).to_json();
    std::fs::write(&path, format!("{first}\n{first}\n")).unwrap();
    let report = with_queen(&grid, &path, &queen_options(30_000), |addr| {
        let mut raw = RawWorker::join(addr, "twice");
        let (id, start, len) = raw.lease();
        // The duplicate goes ahead of the lease's last record, so the run
        // cannot finish before the queen reconciles it.
        raw.record(&grid, id, start).unwrap();
        raw.record(&grid, id, start).unwrap();
        for dense in start + 1..start + len {
            raw.record(&grid, id, dense).unwrap();
        }
        raw.send(&ToQueen::Done { lease: id }).unwrap();
        raw.hang_up();
        finish(addr, &grid, "steady");
    });
    assert!(report.complete);
    assert_eq!((report.reused, report.ran), (1, grid.num_cells() - 1));
    assert_eq!(report.duplicates, 1);
    assert_serial_bytes(&grid, &path);
}

/// Dynamic chunk sizing over the wire: with a configured chunk far larger
/// than the grid, the queen's first grant still carves only a tail-sized
/// piece (the unleased pool spread across `TAIL_PARALLELISM` workers), so
/// the rest of the grid stays available to other workers.
#[test]
fn tail_chunks_shrink_over_loopback() {
    let grid = grid(); // 6 cells
    let path = tmp_path("tail-chunk");
    let options = QueenOptions {
        chunk: Some(64),
        ..queen_options(2_000)
    };
    let report = with_queen(&grid, &path, &options, |addr| {
        // A raw-socket observer asks for the first lease.
        let mut probe = RawWorker::join(addr, "probe");
        let (_, _, len) = probe.lease();
        // 6 unleased cells spread over TAIL_PARALLELISM (4) workers, not
        // the configured 64-cell chunk.
        assert_eq!(len, 2);

        // Hanging up returns the cells; a real worker finishes the grid.
        probe.hang_up();
        finish(addr, &grid, "real");
    });

    assert!(report.complete);
    // The probe's cells came back through the release, not by expiring.
    assert_eq!(report.speculative, 0);
    assert_serial_bytes(&grid, &path);
}

/// A raw-socket worker that takes a lease and goes silent: the lease must
/// expire and be speculatively re-dispatched to a real worker, and the
/// stalled worker's eventual duplicate records must reconcile cleanly.
#[test]
fn stalled_lease_is_speculatively_re_dispatched() {
    let grid = grid();
    let path = tmp_path("stalled");
    // Tiny TTL: the staller is overdue almost immediately.
    let report = with_queen(&grid, &path, &queen_options(50), |addr| {
        // The staller grabs a lease by hand and never works it.
        let mut staller = RawWorker::join(addr, "staller");
        let (id, start, len) = staller.lease();
        assert!(len >= 1);

        // Let it expire, then bring up a real worker to finish the grid
        // (including the stalled cells, via speculative re-lease).
        std::thread::sleep(Duration::from_millis(120));
        finish(addr, &grid, "real");

        // The staller finally wakes up and streams its (now duplicate)
        // records — the queen must reconcile or drop them, never
        // conflict. (The queen may already have closed the connection
        // after completing; a failed write is fine.)
        for dense in start..start + len {
            let _ = staller.record(&grid, id, dense);
        }
    });

    assert!(report.complete);
    assert!(report.speculative >= 1, "no speculative re-lease happened");
    assert_serial_bytes(&grid, &path);
}

/// The long poll's release path: a `LEASE` that finds every cell leased
/// gets no reply while the holder lives, and exactly the holder's cells
/// once it hangs up.
#[test]
fn parked_lease_gets_the_cells_a_disconnect_returns() {
    let grid = one_cell_grid();
    let path = tmp_path("parked-release");
    // A TTL no test run reaches: nothing may be re-leased speculatively.
    let report = with_queen(&grid, &path, &queen_options(60_000), |addr| {
        let mut holder = RawWorker::join(addr, "holder");
        let (_, start, len) = holder.lease();
        assert_eq!((start, len), (0, 1), "the holder leases the whole grid");

        let mut waiter = RawWorker::join(addr, "waiter");
        waiter.park_lease();
        holder.hang_up();
        let id = match waiter.reply() {
            ToWorker::Lease { id, start, len } => {
                assert_eq!((start, len), (0, 1), "not the returned cell");
                id
            }
            other => panic!("expected the returned cell, got {other:?}"),
        };

        // The waiter works the cell, and its next request ends the run.
        waiter.record(&grid, id, 0).unwrap();
        waiter.send(&ToQueen::Done { lease: id }).unwrap();
        waiter.send(&ToQueen::Lease).unwrap();
        assert_eq!(waiter.reply(), ToWorker::Complete);
    });

    assert!(report.complete);
    assert_eq!(report.speculative, 0);
    assert_serial_bytes(&grid, &path);
}

/// The long poll's finish path: a `LEASE` parked when the last `RECORD`
/// lands is answered `DONE`.
#[test]
fn parked_lease_is_answered_done_when_the_last_record_lands() {
    let grid = one_cell_grid();
    let path = tmp_path("parked-done");
    let report = with_queen(&grid, &path, &queen_options(60_000), |addr| {
        let mut holder = RawWorker::join(addr, "holder");
        let (id, _, _) = holder.lease();
        let mut waiter = RawWorker::join(addr, "waiter");
        waiter.park_lease();
        holder.record(&grid, id, 0).unwrap();
        assert_eq!(waiter.reply(), ToWorker::Complete);
    });

    assert!(report.complete);
    assert_eq!(report.speculative, 0);
    assert_serial_bytes(&grid, &path);
}

/// A worker must reject a lease that reaches past the grid — or whose end
/// overflows — instead of indexing out of bounds.
#[test]
fn worker_rejects_a_lease_outside_the_grid() {
    let grid = grid(); // 6 cells
    for lease in ["LEASE 1 1000 1", "LEASE 1 18446744073709551615 2"] {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::scope(|scope| {
            let queen = scope.spawn(|| {
                let (stream, _) = listener.accept().unwrap();
                let mut writer = stream.try_clone().unwrap();
                let mut reader = LineReader::new(stream);
                let mut expect = |message: fn(&ToQueen) -> bool| {
                    let line = reader.read_line().unwrap().unwrap();
                    assert!(message(&ToQueen::parse(&line).unwrap()), "{line}");
                };
                expect(|m| matches!(m, ToQueen::Hello { .. }));
                writer
                    .write_all(b"HELLO fleet/1 test-grid 0 6 10000\n")
                    .unwrap();
                expect(|m| *m == ToQueen::Lease);
                writer.write_all(format!("{lease}\n").as_bytes()).unwrap();
            });
            let err = run_worker(&addr, resolver(&grid), &WorkerOptions::new("w")).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{lease}: {err}");
            queen.join().unwrap();
        });
    }
}

/// The environment variable that turns [`worker_process_entry`] into a
/// fleet worker.
const WORKER_ENV: &str = "COHMELEON_FLEET_TEST_QUEEN";

/// A no-op as a test. In a process `run_local` spawned, the variable
/// names the queen and this runs one worker against it: this test binary
/// doubles as the worker program.
#[test]
fn worker_process_entry() {
    if let Ok(addr) = std::env::var(WORKER_ENV) {
        finish(&addr, &grid(), "child");
    }
}

#[test]
fn local_worker_processes_land_serial_bytes() {
    let grid = grid();
    let path = tmp_path("local");
    let exe = std::env::current_exe().unwrap();
    let report = run_local(&grid, &path, &queen_options(10_000), 2, |addr| {
        let mut worker = Command::new(&exe);
        worker
            .args(["--exact", "worker_process_entry"])
            .env(WORKER_ENV, addr)
            .stdout(Stdio::null());
        worker
    })
    .unwrap();

    assert!(report.complete);
    assert_eq!(report.ran, grid.num_cells());
    assert_serial_bytes(&grid, &path);
}

/// Worker processes that exit before the run is done fail it promptly —
/// never a hang in `accept()` — and are all reaped; the checkpoint stays
/// loadable. A successful exit fails the run too once no worker is left.
#[cfg(target_os = "linux")]
#[test]
fn failing_local_workers_fail_the_run_and_are_reaped() {
    for (exit, expected) in [(3, "exit status: 3"), (0, "before the run finished")] {
        let grid = grid();
        let path = tmp_path(&format!("local-exit-{exit}"));
        let pid_file = tmp_path(&format!("local-exit-{exit}-pids"));
        let script = format!("echo $$ >> {}; exit {exit}", pid_file.display());
        let (done, result) = std::sync::mpsc::channel();
        let started = Instant::now();
        let runner = {
            let (grid, path) = (grid.clone(), path.clone());
            std::thread::spawn(move || {
                let report = run_local(&grid, &path, &queen_options(60_000), 2, |_addr| {
                    let mut worker = Command::new("sh");
                    worker.args(["-c", &script]);
                    worker
                });
                done.send(report).unwrap();
            })
        };
        // A hung run leaves its thread behind; only a finished one is joined.
        let err = result
            .recv_timeout(Duration::from_secs(20))
            .expect("run_local hung on dead workers")
            .unwrap_err();
        runner.join().unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "{:?}",
            started.elapsed()
        );
        assert!(err.to_string().contains(expected), "exit {exit}: {err}");

        let pids = std::fs::read_to_string(&pid_file).unwrap();
        assert_eq!(pids.lines().count(), 2, "{pids}");
        for pid in pids.lines() {
            assert!(
                !Path::new(&format!("/proc/{pid}")).exists(),
                "worker {pid} was not reaped"
            );
        }
        assert_eq!(Checkpoint::load(&path, &grid).unwrap().len(), 0);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&pid_file);
    }
}
