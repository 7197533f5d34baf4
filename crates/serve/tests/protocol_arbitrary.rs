//! The serving wire parsers on arbitrary input. Every line a server or a
//! client reads comes from a peer over TCP, and the routing scope and
//! scope keys a frozen snapshot names are parsed from text too. So on
//! arbitrary bytes, on every truncation and on every single-character
//! substitution of a valid input, the parsers must:
//!
//! * never panic (`ToServer::parse`, `ToClient::parse`,
//!   `Query::parse_token`, `AgentScope::from_str` and
//!   `ScopeKey::from_str`);
//! * round-trip every value they accept: `to_line`, `to_token` or
//!   `Display`, then parse again, give the same value;
//! * accept a query token or a scope key only as `to_token` or `Display`
//!   writes it, so every accepted one re-renders byte for byte.

use std::io;

use cohmeleon_core::router::{AgentScope, ScopeKey};
use cohmeleon_core::{AccelInstanceId, AccelKindId};
use cohmeleon_serve::protocol::LineReader;
use cohmeleon_serve::{Query, ToClient, ToServer};

fn queries() -> Vec<Query> {
    vec![
        Query {
            instance: 3,
            kind: Some(1),
            state: 42,
            mask: 15,
        },
        Query {
            instance: 65535,
            kind: None,
            state: 2186,
            mask: 9,
        },
    ]
}

/// Every verb in both directions, as `to_line` writes it.
fn valid_lines() -> Vec<String> {
    let to_server = [
        ToServer::Hello {
            name: "soc-client-2".into(),
        },
        ToServer::Decide { queries: queries() },
        ToServer::Swap {
            path: "snapshots/cohmeleon suite.tsv".into(),
        },
        ToServer::Stat,
        ToServer::Shutdown,
    ];
    let to_client = [
        ToClient::Hello {
            version: 1,
            scope: AgentScope::PerKind,
            states: 243,
            tables: 3,
        },
        ToClient::Modes {
            version: 2,
            modes: vec![0, 3, 1],
        },
        ToClient::Swapped {
            version: u64::MAX,
            scope: AgentScope::PerInstance,
            tables: 1,
        },
        ToClient::Stat {
            version: 2,
            decisions: 1000,
            batches: 10,
            swaps: 1,
            clients: 4,
            errors: 2,
        },
        ToClient::Err {
            message: "state 999 out of range".into(),
        },
        ToClient::Bye,
    ];
    to_server
        .iter()
        .map(ToServer::to_line)
        .chain(to_client.iter().map(ToClient::to_line))
        .collect()
}

/// Every single-token input: query tokens, scope labels and scope keys,
/// as `to_token` and `Display` write them.
fn valid_tokens() -> Vec<String> {
    let keys = [
        ScopeKey::Global,
        ScopeKey::Kind(AccelKindId(7)),
        ScopeKey::Instance(AccelInstanceId(65535)),
    ];
    queries()
        .into_iter()
        .map(Query::to_token)
        .chain(AgentScope::ALL.iter().map(AgentScope::to_string))
        .chain(keys.iter().map(ScopeKey::to_string))
        .collect()
}

fn valid_inputs() -> Vec<String> {
    valid_lines().into_iter().chain(valid_tokens()).collect()
}

/// The characters substituted at every position: the field and query
/// separators, digit and sign edges, the `-` of an unregistered kind,
/// two-byte characters (one of them a non-ASCII digit) and NUL.
const SUBSTITUTES: [char; 14] = [
    ' ', ':', '0', '9', '-', '+', 'x', '/', 'k', '\t', '\r', 'é', '٣', '\0',
];

/// Checks every parser on one input (which holds no `\n`).
fn check(input: &str) {
    if let Ok(message) = ToServer::parse(input) {
        let again = ToServer::parse(&message.to_line());
        assert_eq!(again.as_ref(), Ok(&message), "round trip of {input:?}");
    }
    if let Ok(message) = ToClient::parse(input) {
        let again = ToClient::parse(&message.to_line());
        assert_eq!(again.as_ref(), Ok(&message), "round trip of {input:?}");
    }
    if let Ok(query) = Query::parse_token(input) {
        assert_eq!(query.to_string(), query.to_token());
        assert_eq!(query.to_token(), input, "re-render of {input:?}");
        let again = Query::parse_token(&query.to_token());
        assert_eq!(again, Ok(query), "round trip of {input:?}");
    }
    if let Ok(scope) = input.parse::<AgentScope>() {
        assert_eq!(
            scope.to_string().parse(),
            Ok(scope),
            "round trip of {input:?}"
        );
    }
    if let Ok(key) = input.parse::<ScopeKey>() {
        assert_eq!(key.to_string(), input, "re-render of {input:?}");
        assert_eq!(key.to_string().parse(), Ok(key), "round trip of {input:?}");
    }
}

/// Frames `bytes` into lines as a connection handler does and checks
/// every line; a non-UTF-8 line is refused by the reader and skipped.
fn check_stream(bytes: &[u8]) {
    let mut reader = LineReader::new(bytes);
    loop {
        match reader.read_line() {
            Ok(Some(line)) => check(&line),
            Ok(None) => break,
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}"),
        }
    }
}

#[test]
fn valid_inputs_round_trip_byte_for_byte() {
    for line in valid_lines() {
        let to_server = ToServer::parse(&line).map(|m| m.to_line());
        let to_client = ToClient::parse(&line).map(|m| m.to_line());
        assert!(
            to_server.as_ref() == Ok(&line) || to_client.as_ref() == Ok(&line),
            "{line:?}"
        );
        check(&line);
    }
    for token in valid_tokens() {
        let query = Query::parse_token(&token).map(Query::to_token);
        let scope = token.parse::<AgentScope>().map(|s| s.to_string());
        let key = token.parse::<ScopeKey>().map(|k| k.to_string());
        assert!(
            query.as_ref() == Ok(&token)
                || scope.as_ref() == Ok(&token)
                || key.as_ref() == Ok(&token),
            "{token:?}"
        );
        check(&token);
    }
}

/// A sign or a leading zero is never written, so it is never accepted.
#[test]
fn non_canonical_numbers_are_refused() {
    for key in ["kind+7", "acc007", "kind00", "acc+0"] {
        assert!(key.parse::<ScopeKey>().is_err(), "{key:?}");
    }
    for token in ["+1:2:3:4", "01:2:3:4", "1:02:3:4", "1:-:+3:4", "1:-:3:04"] {
        assert!(Query::parse_token(token).is_err(), "{token:?}");
    }
    assert_eq!("kind0".parse(), Ok(ScopeKey::Kind(AccelKindId(0))));
    assert!(Query::parse_token("0:0:0:1").is_ok());
}

#[test]
fn every_truncation_is_handled() {
    for input in valid_inputs() {
        for (end, _) in input.char_indices() {
            check(&input[..end]);
        }
    }
}

#[test]
fn every_single_character_substitution_is_handled() {
    for input in valid_inputs() {
        let chars: Vec<char> = input.chars().collect();
        for at in 0..chars.len() {
            for sub in SUBSTITUTES {
                let mut mutant = chars.clone();
                mutant[at] = sub;
                check(&mutant.iter().collect::<String>());
            }
        }
    }
}

/// Marsaglia's xorshift64: a seeded, dependency-free stream.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[test]
fn seeded_arbitrary_bytes_are_handled() {
    let valid: Vec<Vec<u8>> = valid_inputs().into_iter().map(String::into_bytes).collect();
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    for _ in 0..2_000 {
        // A stream of a few lines, each raw noise or a valid input with
        // one to four byte edits (which may break its UTF-8).
        let mut stream = Vec::new();
        for _ in 0..1 + rng.below(4) {
            let line: Vec<u8> = if rng.below(4) == 0 {
                (0..rng.below(120)).map(|_| rng.next() as u8).collect()
            } else {
                let mut line = valid[rng.below(valid.len())].clone();
                for _ in 0..1 + rng.below(4) {
                    let at = rng.below(line.len() + 1);
                    let byte = rng.next() as u8;
                    match rng.below(3) {
                        0 if at < line.len() => line[at] = byte,
                        1 if at < line.len() => {
                            line.remove(at);
                        }
                        _ => line.insert(at, byte),
                    }
                }
                line
            };
            stream.extend_from_slice(&line);
            stream.push(b'\n');
        }
        check_stream(&stream);
    }
}
