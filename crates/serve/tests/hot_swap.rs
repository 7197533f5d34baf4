//! Hot-swap under live traffic: zero lost requests, zero torn reads.
//!
//! Verifying load-generator clients hammer the server while one of them
//! installs a second snapshot mid-run. Every response names the table
//! version that produced it, and the load generator recomputes every
//! single decision locally against that exact version — so one decision
//! computed from a half-visible table, or attributed to the wrong
//! version, fails the run. Also covers the ugly-peer cases: a client that
//! dies mid-line, a client that sends garbage, and a swap pointing at a
//! bad file (the old table must stay live).

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;

use cohmeleon_core::FrozenSnapshot;
use cohmeleon_serve::{
    run_load, run_server, LoadOptions, Query, ServeClient, ServeOptions, ServerReport, SwapPlan,
};

const STATES: usize = 27;

/// A deterministic q-table document whose argmax landscape depends on
/// `salt` (same construction as the core frozen-layer tests).
fn synthetic_snapshot_text(states: usize, salt: usize) -> String {
    let mut text = String::from("# synthetic serve-test table\n# cohmeleon q-table v1\n");
    for s in 0..states {
        let v = |a: usize| ((s * 31 + a * 7 + salt) % 13) as f64 - 6.0;
        text.push_str(&format!("{s}\t{}\t{}\t{}\t{}\n", v(0), v(1), v(2), v(3)));
    }
    text
}

fn temp_snapshot(tag: &str, salt: usize) -> (PathBuf, FrozenSnapshot) {
    let text = synthetic_snapshot_text(STATES, salt);
    let snapshot = FrozenSnapshot::parse(&text, STATES).expect("synthetic table parses");
    let path = std::env::temp_dir().join(format!(
        "cohmeleon-serve-hotswap-{}-{tag}.tsv",
        std::process::id()
    ));
    std::fs::write(&path, text).expect("write temp snapshot");
    (path, snapshot)
}

fn spawn_server(
    snapshot: FrozenSnapshot,
) -> (
    String,
    std::thread::JoinHandle<std::io::Result<ServerReport>>,
) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let handle =
        std::thread::spawn(move || run_server(listener, snapshot, &ServeOptions::default()));
    (addr, handle)
}

#[test]
fn hot_swap_under_concurrent_load_loses_nothing() {
    let (_path_a, snap_a) = temp_snapshot("initial", 0);
    let (path_b, snap_b) = temp_snapshot("swapped", 5);
    let (addr, server) = spawn_server(snap_a.clone());

    let options = LoadOptions {
        clients: 4,
        batches: 120,
        batch_size: 8,
        seed: 42,
        swap: Some(SwapPlan {
            path: path_b.to_string_lossy().into_owned(),
            after_batches: 30,
        }),
        verify: vec![snap_a, snap_b],
        ..LoadOptions::default()
    };
    let report = run_load(&addr, &options).expect("load run");

    // Zero lost requests: every batch every client sent was answered.
    assert_eq!(report.batches, 4 * 120);
    assert_eq!(report.decisions, 4 * 120 * 8);
    // Zero torn state: every response matched local dispatch on the
    // version the server claimed, and every version was verifiable.
    assert_eq!(report.mismatches, 0, "server served torn/foreign state");
    assert_eq!(report.unverified, 0, "server claimed an unknown version");
    // The swap really happened mid-traffic: both versions answered load.
    let versions: Vec<u64> = report.versions_seen.iter().copied().collect();
    assert_eq!(versions, vec![1, 2], "expected traffic on both versions");

    let mut admin = ServeClient::connect(&addr, "admin").expect("connect");
    let stat = admin.stat().expect("stat");
    assert_eq!(stat.swaps, 1);
    assert_eq!(stat.version, 2);
    assert!(stat.decisions >= report.decisions);
    admin.shutdown().expect("shutdown");

    let server_report = server.join().expect("server thread").expect("server ran");
    assert_eq!(server_report.swaps, 1);
    assert_eq!(server_report.final_version, 2);
    let _ = std::fs::remove_file(&path_b);
}

#[test]
fn failed_swap_keeps_the_old_table_live() {
    let (path_a, snap_a) = temp_snapshot("only", 3);
    let (addr, server) = spawn_server(snap_a.clone());

    let mut client = ServeClient::connect(&addr, "swapper").expect("connect");
    let query = Query {
        instance: 1,
        kind: None,
        state: 4,
        mask: 0b1011,
    };
    let (v1, before) = client.decide_batch(&[query]).expect("decide before");
    assert_eq!(v1, 1);

    // Missing file: rejected, connection stays usable.
    let err = client.swap("/nonexistent/cohmeleon-snapshot.tsv");
    assert!(err.is_err(), "swap of a missing file must fail");
    // Unparseable file: rejected too.
    let garbage = std::env::temp_dir().join(format!(
        "cohmeleon-serve-hotswap-{}-garbage.tsv",
        std::process::id()
    ));
    std::fs::write(&garbage, "not a table\n").expect("write garbage");
    assert!(client.swap(&garbage.to_string_lossy()).is_err());

    let (v_after, after) = client.decide_batch(&[query]).expect("decide after");
    assert_eq!(v_after, 1, "failed swaps must not bump the version");
    assert_eq!(before, after, "failed swaps must not change decisions");

    client.shutdown().expect("shutdown");
    let report = server.join().expect("server thread").expect("server ran");
    assert_eq!(report.swaps, 0);
    assert_eq!(report.errors, 2, "both failed swaps must be counted");
    let _ = std::fs::remove_file(&path_a);
    let _ = std::fs::remove_file(&garbage);
}

#[test]
fn torn_connections_and_garbage_do_not_kill_the_server() {
    let (path_a, snap_a) = temp_snapshot("robust", 1);
    let (addr, server) = spawn_server(snap_a.clone());

    // A peer that dies mid-line: greet, then send a torn DECIDE prefix
    // with no newline and vanish.
    {
        let mut torn = TcpStream::connect(&addr).expect("connect raw");
        torn.write_all(b"HELLO serve/1 torn-peer\n").expect("hello");
        let mut reader = BufReader::new(torn.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("server hello");
        assert!(line.starts_with("HELLO serve/1 "), "got `{line}`");
        torn.write_all(b"DECIDE 1 0:-:").expect("torn prefix");
        // Dropped here: the server must treat the tail as torn and move on.
    }

    // A peer that sends garbage mid-session: gets ERR, and because the
    // bad line was consumed whole the connection stays usable.
    {
        let mut rude = TcpStream::connect(&addr).expect("connect raw");
        rude.write_all(b"HELLO serve/1 rude-peer\n").expect("hello");
        let mut reader = BufReader::new(rude.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("server hello");
        rude.write_all(b"EXPLODE now\n").expect("garbage");
        line.clear();
        reader.read_line(&mut line).expect("err line");
        assert!(line.starts_with("ERR "), "got `{line}`");
        rude.write_all(b"STAT\n").expect("stat after err");
        line.clear();
        reader.read_line(&mut line).expect("stat line");
        assert!(
            line.starts_with("STAT "),
            "connection must stay usable after ERR, got `{line}`"
        );
    }

    // A peer that skips the handshake entirely.
    {
        let mut silent = TcpStream::connect(&addr).expect("connect raw");
        silent.write_all(b"STAT\n").expect("premature stat");
        let mut reader = BufReader::new(silent.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("err line");
        assert!(line.starts_with("ERR "), "got `{line}`");
    }

    // After all that abuse, a well-behaved client still gets service.
    let mut client = ServeClient::connect(&addr, "polite").expect("connect");
    let (version, modes) = client
        .decide_batch(&[Query {
            instance: 0,
            kind: None,
            state: 0,
            mask: 0b1111,
        }])
        .expect("decide after abuse");
    assert_eq!(version, 1);
    assert_eq!(modes.len(), 1);

    client.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("server ran");
    let _ = std::fs::remove_file(&path_a);
}
