//! The serving wire protocol: line-delimited text over TCP.
//!
//! One message per `\n`-terminated line, ASCII verbs, space-separated
//! fields. A decision query is one colon-joined token
//! `inst:kind:state:mask` (`kind` is a numeric accelerator-kind id or `-`
//! for unregistered), so a `DECIDE` line carries an arbitrary batch of
//! queries and the reply is one mode index per query — the batched
//! request API the ROADMAP's serving item calls for.
//!
//! | direction | line | meaning |
//! |---|---|---|
//! | client → server | `HELLO serve/1 <name>` | join; `<name>` is a label for reporting |
//! | server → client | `HELLO serve/1 <version> <scope> <states> <tables>` | table version, routing scope, state cardinality, table count |
//! | client → server | `DECIDE <n> <q1> … <qn>` | batch of `n` queries `inst:kind:state:mask` |
//! | server → client | `MODES <version> <m1> … <mn>` | one mode index per query, all answered from table `<version>` |
//! | client → server | `SWAP <path>` | load a new snapshot from `<path>` and flip atomically |
//! | server → client | `SWAPPED <version> <scope> <tables>` | the new live version |
//! | client → server | `STAT` | ask for server counters |
//! | server → client | `STAT <version> <decisions> <batches> <swaps> <clients> <errors>` | current counters |
//! | client → server | `SHUTDOWN` | stop the server once connections drain |
//! | server → client | `BYE` | shutdown acknowledged |
//! | server → client | `ERR <message>` | request rejected; the connection stays open |
//!
//! Every query in one `DECIDE` batch is answered from exactly one table
//! version — the server resolves its live snapshot pointer once per
//! batch, and `MODES` names the version used, so a client can attribute
//! every response to one table even while `SWAP`s land mid-traffic.
//! After the handshake, every rejection — unknown verb, malformed or
//! oversized (> [`MAX_BATCH`]) batch, out-of-range query, failed swap —
//! is answered with `ERR` and counted, and the connection stays usable:
//! line framing is intact (the offending line was fully consumed), so
//! one bad request never costs a client its connection. Only a broken
//! *handshake* (anything before a valid client `HELLO`) closes the
//! connection. Other connections are never affected either way.

use std::fmt;

pub use cohmeleon_chaos::LineReader;
use cohmeleon_core::parse_canonical;
use cohmeleon_core::router::AgentScope;

/// The protocol version token both `HELLO`s must carry.
pub const PROTOCOL_VERSION: &str = "serve/1";

/// The most queries one `DECIDE` line may carry. A cap keeps one client
/// from making the server buffer and answer an unbounded batch; an
/// oversized batch is rejected with `ERR` (the connection stays open).
pub const MAX_BATCH: usize = 1024;

fn bad(line: &str, why: &str) -> String {
    format!("bad serve message `{line}`: {why}")
}

/// One decision query: which instance is invoking, its registered kind
/// (if any), the encoded state index, and the 4-bit availability mask of
/// the modes its tile supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    /// The invoking accelerator instance id.
    pub instance: u16,
    /// The instance's registered kind id, `None` if unregistered
    /// (per-kind routing then falls back to the global catch-all).
    pub kind: Option<u16>,
    /// The encoded state index (must be below the snapshot's state
    /// cardinality).
    pub state: u32,
    /// Availability mask: bit *i* set ⇔ mode index *i* supported. Must be
    /// non-zero and within the low 4 bits.
    pub mask: u8,
}

impl Query {
    /// Serialises the query as its wire token `inst:kind:state:mask`.
    pub fn to_token(self) -> String {
        match self.kind {
            Some(kind) => format!("{}:{}:{}:{}", self.instance, kind, self.state, self.mask),
            None => format!("{}:-:{}:{}", self.instance, self.state, self.mask),
        }
    }

    /// Parses a wire token produced by [`to_token`](Self::to_token). Every
    /// number must be written as `to_token` writes it: no sign, and no
    /// leading zero unless the number is `0`.
    ///
    /// # Errors
    ///
    /// A message naming the token and what is wrong with it (wrong field
    /// count, a field that is not such a number, empty or out-of-range
    /// mask).
    pub fn parse_token(token: &str) -> Result<Query, String> {
        let fields: Vec<&str> = token.split(':').collect();
        let [instance, kind, state, mask] = fields.as_slice() else {
            return Err(format!(
                "bad query `{token}`: expected inst:kind:state:mask"
            ));
        };
        let instance: u16 = parse_canonical(instance)
            .ok_or_else(|| format!("bad query `{token}`: malformed instance"))?;
        let kind = match *kind {
            "-" => None,
            k => Some(
                parse_canonical::<u16>(k)
                    .ok_or_else(|| format!("bad query `{token}`: malformed kind"))?,
            ),
        };
        let state: u32 = parse_canonical(state)
            .ok_or_else(|| format!("bad query `{token}`: malformed state"))?;
        let mask: u8 =
            parse_canonical(mask).ok_or_else(|| format!("bad query `{token}`: malformed mask"))?;
        if mask == 0 || mask > 0b1111 {
            return Err(format!("bad query `{token}`: mask must be in 1..=15"));
        }
        Ok(Query {
            instance,
            kind,
            state,
            mask,
        })
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_token())
    }
}

/// A message a client sends to the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ToServer {
    /// `HELLO serve/1 <name>` — join.
    Hello {
        /// The client's self-reported label.
        name: String,
    },
    /// `DECIDE <n> <q1> … <qn>` — a batch of decision queries.
    Decide {
        /// The queries, in order; the reply carries one mode per query.
        queries: Vec<Query>,
    },
    /// `SWAP <path>` — load and atomically install a new snapshot.
    Swap {
        /// Filesystem path of the snapshot, server-side.
        path: String,
    },
    /// `STAT` — ask for server counters.
    Stat,
    /// `SHUTDOWN` — stop the server once connections drain.
    Shutdown,
}

impl ToServer {
    /// Serialises the message as its wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            ToServer::Hello { name } => format!("HELLO {PROTOCOL_VERSION} {name}"),
            ToServer::Decide { queries } => {
                let mut line = format!("DECIDE {}", queries.len());
                for q in queries {
                    line.push(' ');
                    line.push_str(&q.to_token());
                }
                line
            }
            ToServer::Swap { path } => format!("SWAP {path}"),
            ToServer::Stat => "STAT".into(),
            ToServer::Shutdown => "SHUTDOWN".into(),
        }
    }

    /// Parses a wire line.
    ///
    /// # Errors
    ///
    /// A message naming the line and what is wrong with it (unknown verb,
    /// version mismatch, malformed query, count mismatch).
    pub fn parse(line: &str) -> Result<ToServer, String> {
        let verb = line.split(' ').next().unwrap_or("");
        match verb {
            "HELLO" => {
                let mut parts = line.splitn(3, ' ');
                parts.next(); // verb
                let version = parts.next().ok_or_else(|| bad(line, "missing version"))?;
                if version != PROTOCOL_VERSION {
                    return Err(bad(
                        line,
                        &format!("version `{version}` (server speaks {PROTOCOL_VERSION})"),
                    ));
                }
                let name = parts.next().ok_or_else(|| bad(line, "missing name"))?;
                Ok(ToServer::Hello { name: name.into() })
            }
            "DECIDE" => {
                let mut parts = line.split(' ');
                parts.next(); // verb
                let n: usize = parts
                    .next()
                    .ok_or_else(|| bad(line, "missing count"))?
                    .parse()
                    .map_err(|_| bad(line, "non-numeric count"))?;
                if n > MAX_BATCH {
                    return Err(bad(
                        line,
                        &format!("batch of {n} exceeds the {MAX_BATCH}-query cap"),
                    ));
                }
                let queries: Vec<Query> = parts
                    .map(Query::parse_token)
                    .collect::<Result<_, _>>()
                    .map_err(|e| bad(line, &e))?;
                if queries.len() != n {
                    return Err(bad(
                        line,
                        &format!("count says {n} queries, line has {}", queries.len()),
                    ));
                }
                if queries.is_empty() {
                    return Err(bad(line, "empty batch"));
                }
                Ok(ToServer::Decide { queries })
            }
            "SWAP" => {
                let path = line
                    .split_once(' ')
                    .map(|(_, p)| p)
                    .filter(|p| !p.is_empty())
                    .ok_or_else(|| bad(line, "missing path"))?;
                Ok(ToServer::Swap { path: path.into() })
            }
            "STAT" => Ok(ToServer::Stat),
            "SHUTDOWN" => Ok(ToServer::Shutdown),
            _ => Err(bad(line, "unknown verb")),
        }
    }
}

/// A message the server sends to a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ToClient {
    /// `HELLO serve/1 <version> <scope> <states> <tables>` — the reply to
    /// a client's `HELLO`: which table version is live, its routing
    /// scope, the state cardinality queries must respect, and how many
    /// agent tables it holds.
    Hello {
        /// The live table version (monotonic, starts at 1).
        version: u64,
        /// The live snapshot's routing scope.
        scope: AgentScope,
        /// State cardinality; query `state` fields must be below it.
        states: usize,
        /// Number of agent tables in the live snapshot.
        tables: usize,
    },
    /// `MODES <version> <m1> … <mn>` — the decisions for one batch, all
    /// answered from table `<version>`.
    Modes {
        /// The single table version this whole batch was answered from.
        version: u64,
        /// One coherence-mode index per query, in query order.
        modes: Vec<u8>,
    },
    /// `SWAPPED <version> <scope> <tables>` — a new snapshot is live.
    Swapped {
        /// The new live version.
        version: u64,
        /// The new snapshot's routing scope.
        scope: AgentScope,
        /// Number of agent tables in the new snapshot.
        tables: usize,
    },
    /// `STAT <version> <decisions> <batches> <swaps> <clients> <errors>`
    /// — server counters.
    Stat {
        /// The live table version.
        version: u64,
        /// Total queries answered.
        decisions: u64,
        /// Total `DECIDE` batches answered.
        batches: u64,
        /// Total snapshots installed after the initial one.
        swaps: u64,
        /// Total clients ever accepted.
        clients: u64,
        /// Total `ERR` replies sent (rejected requests and failed swaps).
        errors: u64,
    },
    /// `ERR <message>` — request rejected; the connection stays open
    /// (only a broken handshake closes it).
    Err {
        /// Human-readable reason.
        message: String,
    },
    /// `BYE` — shutdown acknowledged.
    Bye,
}

impl ToClient {
    /// Serialises the message as its wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            ToClient::Hello {
                version,
                scope,
                states,
                tables,
            } => format!("HELLO {PROTOCOL_VERSION} {version} {scope} {states} {tables}"),
            ToClient::Modes { version, modes } => {
                let mut line = format!("MODES {version}");
                for m in modes {
                    line.push(' ');
                    line.push_str(&m.to_string());
                }
                line
            }
            ToClient::Swapped {
                version,
                scope,
                tables,
            } => format!("SWAPPED {version} {scope} {tables}"),
            ToClient::Stat {
                version,
                decisions,
                batches,
                swaps,
                clients,
                errors,
            } => format!("STAT {version} {decisions} {batches} {swaps} {clients} {errors}"),
            ToClient::Err { message } => format!("ERR {message}"),
            ToClient::Bye => "BYE".into(),
        }
    }

    /// Parses a wire line.
    ///
    /// # Errors
    ///
    /// As for [`ToServer::parse`].
    pub fn parse(line: &str) -> Result<ToClient, String> {
        let verb = line.split(' ').next().unwrap_or("");
        match verb {
            "HELLO" => {
                let mut parts = line.split(' ');
                parts.next(); // verb
                let version = parts.next().ok_or_else(|| bad(line, "missing version"))?;
                if version != PROTOCOL_VERSION {
                    return Err(bad(
                        line,
                        &format!("version `{version}` (client speaks {PROTOCOL_VERSION})"),
                    ));
                }
                Ok(ToClient::Hello {
                    version: parse_u64(line, parts.next())?,
                    scope: parse_scope(line, parts.next())?,
                    states: parse_u64(line, parts.next())? as usize,
                    tables: parse_u64(line, parts.next())? as usize,
                })
            }
            "MODES" => {
                let mut parts = line.split(' ');
                parts.next(); // verb
                let version = parse_u64(line, parts.next())?;
                let modes: Vec<u8> = parts
                    .map(|m| m.parse::<u8>().map_err(|_| bad(line, "non-numeric mode")))
                    .collect::<Result<_, _>>()?;
                Ok(ToClient::Modes { version, modes })
            }
            "SWAPPED" => {
                let mut parts = line.split(' ');
                parts.next(); // verb
                Ok(ToClient::Swapped {
                    version: parse_u64(line, parts.next())?,
                    scope: parse_scope(line, parts.next())?,
                    tables: parse_u64(line, parts.next())? as usize,
                })
            }
            "STAT" => {
                let mut parts = line.split(' ');
                parts.next(); // verb
                Ok(ToClient::Stat {
                    version: parse_u64(line, parts.next())?,
                    decisions: parse_u64(line, parts.next())?,
                    batches: parse_u64(line, parts.next())?,
                    swaps: parse_u64(line, parts.next())?,
                    clients: parse_u64(line, parts.next())?,
                    errors: parse_u64(line, parts.next())?,
                })
            }
            "ERR" => {
                let message = line.split_once(' ').map_or("", |(_, m)| m).to_owned();
                Ok(ToClient::Err { message })
            }
            "BYE" => Ok(ToClient::Bye),
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

fn parse_scope(line: &str, field: Option<&str>) -> Result<AgentScope, String> {
    field
        .ok_or_else(|| bad(line, "missing scope"))?
        .parse::<AgentScope>()
        .map_err(|e| bad(line, &format!("{e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_tokens_round_trip() {
        let queries = [
            Query {
                instance: 3,
                kind: Some(1),
                state: 42,
                mask: 15,
            },
            Query {
                instance: 0,
                kind: None,
                state: 0,
                mask: 1,
            },
            Query {
                instance: 65535,
                kind: Some(65535),
                state: 2186,
                mask: 9,
            },
        ];
        for q in queries {
            assert_eq!(Query::parse_token(&q.to_token()).unwrap(), q);
        }
    }

    #[test]
    fn query_rejects_garbage() {
        assert!(Query::parse_token("1:2:3").is_err());
        assert!(Query::parse_token("x:2:3:4").is_err());
        assert!(Query::parse_token("1:y:3:4").is_err());
        assert!(Query::parse_token("1:2:z:4").is_err());
        assert!(Query::parse_token("1:2:3:0").is_err()); // empty mask
        assert!(Query::parse_token("1:2:3:16").is_err()); // beyond 4 bits
    }

    #[test]
    fn to_server_round_trips() {
        let messages = [
            ToServer::Hello {
                name: "soc-client-2".into(),
            },
            ToServer::Decide {
                queries: vec![
                    Query {
                        instance: 0,
                        kind: Some(0),
                        state: 7,
                        mask: 15,
                    },
                    Query {
                        instance: 9,
                        kind: None,
                        state: 242,
                        mask: 5,
                    },
                ],
            },
            ToServer::Swap {
                path: "snapshots/cohmeleon suite.tsv".into(),
            },
            ToServer::Stat,
            ToServer::Shutdown,
        ];
        for message in messages {
            assert_eq!(ToServer::parse(&message.to_line()).unwrap(), message);
        }
    }

    #[test]
    fn to_client_round_trips() {
        let messages = [
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
                version: 2,
                scope: AgentScope::Global,
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
        for message in messages {
            assert_eq!(ToClient::parse(&message.to_line()).unwrap(), message);
        }
    }

    #[test]
    fn decide_count_must_match() {
        assert!(ToServer::parse("DECIDE 2 1:0:5:15").is_err());
        assert!(ToServer::parse("DECIDE 0").is_err());
        assert!(ToServer::parse("DECIDE x 1:0:5:15").is_err());
    }

    #[test]
    fn decide_rejects_oversized_batches_by_claimed_count() {
        let line = format!("DECIDE {} 1:0:5:15", MAX_BATCH + 1);
        let why = ToServer::parse(&line).unwrap_err();
        assert!(why.contains("exceeds"), "unexpected error: {why}");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ToServer::parse("NOPE").is_err());
        assert!(ToServer::parse("HELLO serve/0 x").is_err());
        assert!(ToServer::parse("SWAP").is_err());
        assert!(ToClient::parse("MODES 1 x").is_err());
        assert!(ToClient::parse("HELLO serve/1 1 per-socket 243 1").is_err());
    }
}
