//! The fleet wire protocol: line-delimited text over TCP.
//!
//! One message per `\n`-terminated line, ASCII verbs, space-separated
//! fields; the payload of a `RECORD` is the cell's JSONL line itself
//! (which contains no newline), so the queen can persist it byte-for-byte
//! through the checkpoint layer without re-serialising. Five verbs total:
//!
//! | direction | line | meaning |
//! |---|---|---|
//! | worker → queen | `HELLO fleet/1 <name>` | join; `<name>` is a label for reporting |
//! | queen → worker | `HELLO fleet/1 <grid> <fast> <cells> <ttl_ms>` | grid to rebuild (`fast` is `0`/`1` for the scale), expected cell count, lease deadline |
//! | worker → queen | `LEASE` | ask for work; the reply waits until there is some |
//! | queen → worker | `LEASE <id> <start> <len>` | lease of dense cells `start..start+len` |
//! | queen → worker | `DONE` | grid complete (or queen stopping) — exit cleanly |
//! | worker → queen | `RECORD <id> <json>` | one completed cell under lease `<id>` |
//! | worker → queen | `DONE <id>` | lease `<id>` fully streamed |
//! | worker → queen | `HEARTBEAT <id>` | still alive and working lease `<id>` |
//!
//! `RECORD`, `DONE` and `HEARTBEAT` are fire-and-forget; the queen replies
//! only to `HELLO` and `LEASE`. A `LEASE` is a long poll: when every
//! pending cell is leased to a live worker, the queen holds the request
//! until cells return to the pool, the earliest lease deadline passes (a
//! speculative twin is then granted), or the run ends (`DONE`); a worker
//! treats any other reply, such as the `HEARTBEAT` ("back off") older
//! queens sent, as a protocol violation. Either side handles a protocol violation
//! by closing the connection — the lease table treats a dropped worker as
//! expired and `Checkpoint::ingest` reconciles any duplicated completions,
//! so closing is always safe.
//!
//! The fire-and-forget verbs are also the protocol's *duplication-safe*
//! set: the queen's receiver is idempotent against a repeated `RECORD`
//! (checkpoint dedup), `DONE` (release is idempotent) and `HEARTBEAT`
//! (unknown or already-renewed leases are ignored). The chaos transport
//! (`cohmeleon-chaos`) leans on exactly this classification — it will
//! duplicate or reorder only these lines, never the strict
//! request/reply `HELLO`/`LEASE` exchanges.

pub use cohmeleon_chaos::LineReader;

/// The protocol version token both `HELLO`s must carry.
pub const PROTOCOL_VERSION: &str = "fleet/1";

fn bad(line: &str, why: &str) -> String {
    format!("bad fleet message `{line}`: {why}")
}

/// A message a worker sends to the queen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ToQueen {
    /// `HELLO fleet/1 <name>` — join the fleet.
    Hello {
        /// The worker's self-reported label (host name, say).
        name: String,
    },
    /// `LEASE` — ask for a shard of work.
    Lease,
    /// `RECORD <id> <json>` — one completed cell under lease `id`.
    Record {
        /// The lease this cell was granted under.
        lease: u64,
        /// The cell's JSONL line, verbatim.
        json: String,
    },
    /// `DONE <id>` — every cell of lease `id` has been streamed.
    Done {
        /// The finished lease.
        lease: u64,
    },
    /// `HEARTBEAT <id>` — still working lease `id`; refresh its deadline.
    Heartbeat {
        /// The lease being kept alive.
        lease: u64,
    },
}

impl ToQueen {
    /// Serialises the message as its wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            ToQueen::Hello { name } => format!("HELLO {PROTOCOL_VERSION} {name}"),
            ToQueen::Lease => "LEASE".into(),
            ToQueen::Record { lease, json } => format!("RECORD {lease} {json}"),
            ToQueen::Done { lease } => format!("DONE {lease}"),
            ToQueen::Heartbeat { lease } => format!("HEARTBEAT {lease}"),
        }
    }

    /// Parses a wire line.
    ///
    /// # Errors
    ///
    /// A message naming the line and what is wrong with it (unknown verb,
    /// missing or non-numeric field, version mismatch).
    pub fn parse(line: &str) -> Result<ToQueen, String> {
        let mut parts = line.splitn(3, ' ');
        let verb = parts.next().unwrap_or("");
        match verb {
            "HELLO" => {
                let version = parts.next().ok_or_else(|| bad(line, "missing version"))?;
                if version != PROTOCOL_VERSION {
                    return Err(bad(
                        line,
                        &format!("version `{version}` (queen speaks {PROTOCOL_VERSION})"),
                    ));
                }
                let name = parts.next().ok_or_else(|| bad(line, "missing name"))?;
                Ok(ToQueen::Hello { name: name.into() })
            }
            "LEASE" => Ok(ToQueen::Lease),
            "RECORD" => {
                let lease = parse_u64(line, parts.next())?;
                let json = parts.next().ok_or_else(|| bad(line, "missing payload"))?;
                Ok(ToQueen::Record {
                    lease,
                    json: json.into(),
                })
            }
            "DONE" => Ok(ToQueen::Done {
                lease: parse_u64(line, parts.next())?,
            }),
            "HEARTBEAT" => Ok(ToQueen::Heartbeat {
                lease: parse_u64(line, parts.next())?,
            }),
            _ => Err(bad(line, "unknown verb")),
        }
    }
}

/// A message the queen sends to a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ToWorker {
    /// `HELLO fleet/1 <grid> <fast> <cells> <ttl_ms>` — the reply to a
    /// worker's `HELLO`: which named grid to rebuild, at which scale, how
    /// many cells it must have, and the lease deadline in milliseconds
    /// (workers pace heartbeats off it).
    Hello {
        /// The registry name of the grid to rebuild.
        grid: String,
        /// Whether to rebuild at the reduced `COHMELEON_FAST` scale.
        fast: bool,
        /// The queen's cell count — the worker's rebuild must match.
        cells: usize,
        /// Lease deadline; silence past it triggers speculative re-lease.
        ttl_ms: u64,
    },
    /// `LEASE <id> <start> <len>` — run dense cells `start..start+len`.
    Lease {
        /// Lease id to tag `RECORD`/`DONE`/`HEARTBEAT` with.
        id: u64,
        /// First dense cell index of the leased range.
        start: usize,
        /// Number of consecutive cells leased.
        len: usize,
    },
    /// `DONE` — the grid is complete (or the queen is stopping); exit.
    Complete,
}

impl ToWorker {
    /// Serialises the message as its wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            ToWorker::Hello {
                grid,
                fast,
                cells,
                ttl_ms,
            } => {
                let fast = u8::from(*fast);
                format!("HELLO {PROTOCOL_VERSION} {grid} {fast} {cells} {ttl_ms}")
            }
            ToWorker::Lease { id, start, len } => format!("LEASE {id} {start} {len}"),
            ToWorker::Complete => "DONE".into(),
        }
    }

    /// Parses a wire line.
    ///
    /// # Errors
    ///
    /// As for [`ToQueen::parse`].
    pub fn parse(line: &str) -> Result<ToWorker, String> {
        let mut parts = line.split(' ');
        let verb = parts.next().unwrap_or("");
        match verb {
            "HELLO" => {
                let version = parts.next().ok_or_else(|| bad(line, "missing version"))?;
                if version != PROTOCOL_VERSION {
                    return Err(bad(
                        line,
                        &format!("version `{version}` (worker speaks {PROTOCOL_VERSION})"),
                    ));
                }
                let grid = parts.next().ok_or_else(|| bad(line, "missing grid"))?;
                let fast = match parts.next() {
                    Some("0") => false,
                    Some("1") => true,
                    _ => return Err(bad(line, "fast flag must be 0 or 1")),
                };
                let cells = parse_u64(line, parts.next())? as usize;
                let ttl_ms = parse_u64(line, parts.next())?;
                Ok(ToWorker::Hello {
                    grid: grid.into(),
                    fast,
                    cells,
                    ttl_ms,
                })
            }
            "LEASE" => Ok(ToWorker::Lease {
                id: parse_u64(line, parts.next())?,
                start: parse_u64(line, parts.next())? as usize,
                len: parse_u64(line, parts.next())? as usize,
            }),
            "DONE" => Ok(ToWorker::Complete),
            _ => Err(bad(line, "unknown verb")),
        }
    }
}

fn parse_u64(line: &str, field: Option<&str>) -> Result<u64, String> {
    field
        .ok_or_else(|| bad(line, "missing field"))?
        .parse::<u64>()
        .map_err(|_| bad(line, "non-numeric field"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_queen_round_trips() {
        let messages = [
            ToQueen::Hello {
                name: "host-3".into(),
            },
            ToQueen::Lease,
            ToQueen::Record {
                lease: 7,
                json: r#"{"scenario": "soc1", "seed": 9}"#.into(),
            },
            ToQueen::Done { lease: 7 },
            ToQueen::Heartbeat { lease: 7 },
        ];
        for message in messages {
            assert_eq!(ToQueen::parse(&message.to_line()).unwrap(), message);
        }
    }

    #[test]
    fn to_worker_round_trips() {
        let messages = [
            ToWorker::Hello {
                grid: "suite".into(),
                fast: true,
                cells: 42,
                ttl_ms: 10_000,
            },
            ToWorker::Lease {
                id: 3,
                start: 12,
                len: 4,
            },
            ToWorker::Complete,
        ];
        for message in messages {
            assert_eq!(ToWorker::parse(&message.to_line()).unwrap(), message);
        }
    }

    #[test]
    fn queen_heartbeat_reply_is_gone() {
        // The queen long-polls `LEASE` instead of answering "wait".
        assert!(ToWorker::parse("HEARTBEAT").is_err());
    }

    #[test]
    fn record_payload_survives_spaces() {
        let json = r#"{"scenario": "soc1", "policy": "fixed non-coh"}"#;
        match ToQueen::parse(&format!("RECORD 5 {json}")).unwrap() {
            ToQueen::Record { lease, json: got } => {
                assert_eq!(lease, 5);
                assert_eq!(got, json);
            }
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ToQueen::parse("NOPE").is_err());
        assert!(ToQueen::parse("HELLO fleet/0 x").is_err());
        assert!(ToQueen::parse("RECORD notanumber {}").is_err());
        assert!(ToWorker::parse("LEASE 1 2").is_err());
    }
}
