//! The `ERR` path in anger: every rejection a live server can issue must
//! leave the connection usable and land in the `STAT` error counter.
//!
//! The serve protocol's recovery contract is framing-based: a rejected
//! request was consumed as one complete line, so nothing about the
//! stream is ambiguous and the client may simply continue. This test
//! walks one connection through every mid-session rejection — an
//! oversized `DECIDE` batch, an unknown verb, a swap pointing at a
//! missing file, a swap pointing at a corrupt file, an out-of-range
//! query — and demands service afterwards each time, then checks the
//! server counted every one of them.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};

use cohmeleon_core::FrozenSnapshot;
use cohmeleon_serve::protocol::MAX_BATCH;
use cohmeleon_serve::{run_server, Query, ServeClient, ServeOptions, ServerReport};

const STATES: usize = 27;

fn synthetic_snapshot_text(states: usize, salt: usize) -> String {
    let mut text = String::from("# synthetic serve-test table\n# cohmeleon q-table v1\n");
    for s in 0..states {
        let v = |a: usize| ((s * 31 + a * 7 + salt) % 13) as f64 - 6.0;
        text.push_str(&format!("{s}\t{}\t{}\t{}\t{}\n", v(0), v(1), v(2), v(3)));
    }
    text
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

/// One scripted exchange on a raw socket: send `line`, expect a reply
/// with the given prefix, and return it.
fn exchange(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("write request");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read reply");
    assert!(!reply.is_empty(), "server closed on `{line}`");
    reply.trim_end().to_string()
}

#[test]
fn every_mid_session_rejection_leaves_the_connection_usable() {
    let text = synthetic_snapshot_text(STATES, 2);
    let snapshot = FrozenSnapshot::parse(&text, STATES).expect("synthetic table parses");
    let (addr, server) = spawn_server(snapshot);

    let corrupt = std::env::temp_dir().join(format!(
        "cohmeleon-serve-errpaths-{}-corrupt.tsv",
        std::process::id()
    ));
    std::fs::write(&corrupt, "q-table v1 but the rows are lies\n").expect("write corrupt");

    // Raw socket so the exact wire traffic is under test.
    let mut stream = TcpStream::connect(&addr).expect("connect raw");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let hello = exchange(&mut stream, &mut reader, "HELLO serve/1 err-prober");
    assert!(hello.starts_with("HELLO serve/1 "), "got `{hello}`");

    // A valid decide first, as the usability baseline.
    let ok = exchange(&mut stream, &mut reader, "DECIDE 1 0:-:1:15");
    assert!(ok.starts_with("MODES 1 "), "got `{ok}`");

    let mut expected_errors = 0u64;
    let rejections: &[(String, &str)] = &[
        // Oversized batch by claimed count: rejected before any queries
        // are even parsed, so no amount of payload can wedge the server.
        (format!("DECIDE {} 0:-:1:15", MAX_BATCH + 1), "exceeds"),
        // Unknown verb mid-stream.
        ("EXPLODE now".to_string(), "unknown"),
        // Batch with an out-of-range query: the batch is rejected, the
        // client is not.
        (format!("DECIDE 1 0:-:{STATES}:15"), "out of range"),
        // Swap to a file that does not exist.
        (
            "SWAP /nonexistent/cohmeleon-errpaths.tsv".to_string(),
            "cannot read",
        ),
        // Swap to a file that exists but does not parse.
        (format!("SWAP {}", corrupt.display()), ""),
        // Mid-session HELLO.
        ("HELLO serve/1 again".to_string(), "mid-session"),
    ];
    for (line, needle) in rejections {
        let reply = exchange(&mut stream, &mut reader, line);
        assert!(reply.starts_with("ERR "), "`{line}` got `{reply}`");
        assert!(
            reply.contains(needle),
            "`{line}` got `{reply}`, expected it to mention `{needle}`"
        );
        expected_errors += 1;
        // The connection answers real work immediately after each ERR.
        let after = exchange(&mut stream, &mut reader, "DECIDE 1 0:-:1:15");
        assert!(
            after.starts_with("MODES 1 "),
            "after `{line}` got `{after}`"
        );
    }

    // The failed swaps must not have bumped the version.
    let stat = exchange(&mut stream, &mut reader, "STAT");
    let fields: Vec<&str> = stat.split_whitespace().collect();
    assert_eq!(fields.first(), Some(&"STAT"), "got `{stat}`");
    assert_eq!(fields.get(1), Some(&"1"), "failed swaps bumped the version");
    assert_eq!(
        fields.get(6).and_then(|v| v.parse::<u64>().ok()),
        Some(expected_errors),
        "STAT errors field disagrees: `{stat}`"
    );
    drop(stream);
    drop(reader);

    // The typed client agrees with the raw wire, and a rejected swap
    // surfaces as Err without poisoning the client.
    let mut client = ServeClient::connect(&addr, "typed").expect("connect");
    assert!(client.swap("/nonexistent/cohmeleon-errpaths.tsv").is_err());
    let (version, modes) = client
        .decide_batch(&[Query {
            instance: 0,
            kind: None,
            state: 1,
            mask: 0b1111,
        }])
        .expect("decide after failed swap");
    assert_eq!(version, 1);
    assert_eq!(modes.len(), 1);
    let stat = client.stat().expect("stat");
    assert_eq!(stat.errors, expected_errors + 1);
    assert_eq!(stat.swaps, 0);
    client.shutdown().expect("shutdown");

    let report = server.join().expect("server thread").expect("server ran");
    assert_eq!(report.errors, expected_errors + 1);
    assert_eq!(report.swaps, 0);
    assert_eq!(report.final_version, 1);
    let _ = std::fs::remove_file(&corrupt);
}

/// A pre-handshake rejection is the one case that still closes: there is
/// no session to keep usable.
#[test]
fn pre_handshake_rejection_closes_the_connection() {
    let text = synthetic_snapshot_text(STATES, 4);
    let snapshot = FrozenSnapshot::parse(&text, STATES).expect("synthetic table parses");
    let (addr, server) = spawn_server(snapshot);

    let mut stream = TcpStream::connect(&addr).expect("connect raw");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let reply = exchange(&mut stream, &mut reader, "STAT");
    assert!(reply.starts_with("ERR "), "got `{reply}`");
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("eof");
    assert_eq!(n, 0, "pre-handshake ERR must close, got `{line}`");
    drop(stream);

    let client = ServeClient::connect(&addr, "closer").expect("connect");
    client.shutdown().expect("shutdown");
    let report = server.join().expect("server thread").expect("server ran");
    assert_eq!(report.errors, 1);
}
