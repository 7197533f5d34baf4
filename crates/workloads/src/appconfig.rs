//! Configuration-file format for evaluation applications.
//!
//! The paper specifies application phases and parameters in a configuration
//! file; this module provides a small line-oriented format (no external
//! format crate needed offline):
//!
//! ```text
//! app my-eval
//! phase "10 Threads: Small"
//!   thread bytes=16384 chain=0,3 loops=2 check=true
//!   thread bytes=16384 chain=1 loops=1 check=false
//! phase "big"
//!   thread bytes=4194304 chain=2,4,5 loops=1 check=true
//! ```
//!
//! `#` starts a comment; blank lines are ignored.

use std::error::Error;
use std::fmt;

use cohmeleon_core::AccelInstanceId;
use cohmeleon_soc::{AppSpec, PhaseSpec, ThreadSpec};

/// A parse failure, with the 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseConfigError {
    /// Line where parsing failed.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseConfigError {}

fn err(line: usize, message: impl Into<String>) -> ParseConfigError {
    ParseConfigError {
        line,
        message: message.into(),
    }
}

/// Parses an application spec from the configuration text.
///
/// # Errors
///
/// Returns a [`ParseConfigError`] naming the offending line for unknown
/// directives, malformed fields, threads outside a phase, or a missing
/// `app` header.
pub fn parse_app(text: &str) -> Result<AppSpec, ParseConfigError> {
    let mut name: Option<String> = None;
    let mut phases: Vec<PhaseSpec> = Vec::new();

    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (keyword, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        match keyword {
            "app" => {
                if rest.trim().is_empty() {
                    return Err(err(lineno, "app directive needs a name"));
                }
                name = Some(rest.trim().to_owned());
            }
            "phase" => {
                let phase_name = rest.trim().trim_matches('"');
                if phase_name.is_empty() {
                    return Err(err(lineno, "phase directive needs a name"));
                }
                phases.push(PhaseSpec {
                    name: phase_name.to_owned(),
                    threads: Vec::new(),
                });
            }
            "thread" => {
                let phase = phases
                    .last_mut()
                    .ok_or_else(|| err(lineno, "thread outside any phase"))?;
                phase.threads.push(parse_thread(rest, lineno)?);
            }
            other => return Err(err(lineno, format!("unknown directive `{other}`"))),
        }
    }

    let name = name.ok_or_else(|| err(0, "missing `app <name>` header"))?;
    Ok(AppSpec { name, phases })
}

fn parse_thread(rest: &str, lineno: usize) -> Result<ThreadSpec, ParseConfigError> {
    let mut bytes: Option<u64> = None;
    let mut chain: Option<Vec<AccelInstanceId>> = None;
    let mut loops: u32 = 1;
    let mut check = false;
    for field in rest.split_whitespace() {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| err(lineno, format!("expected key=value, got `{field}`")))?;
        match key {
            "bytes" => {
                bytes = Some(parse_bytes(value).map_err(|m| err(lineno, m))?);
            }
            "chain" => {
                let ids = value
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<u16>()
                            .map(AccelInstanceId)
                            .map_err(|_| err(lineno, format!("bad accelerator id `{s}`")))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if ids.is_empty() {
                    return Err(err(lineno, "chain must list at least one accelerator"));
                }
                chain = Some(ids);
            }
            "loops" => {
                loops = value
                    .parse()
                    .map_err(|_| err(lineno, format!("bad loop count `{value}`")))?;
                if loops == 0 {
                    return Err(err(lineno, "loops must be at least 1"));
                }
            }
            "check" => {
                check = match value {
                    "true" | "1" => true,
                    "false" | "0" => false,
                    other => return Err(err(lineno, format!("bad check flag `{other}`"))),
                };
            }
            other => return Err(err(lineno, format!("unknown thread field `{other}`"))),
        }
    }
    Ok(ThreadSpec {
        dataset_bytes: bytes.ok_or_else(|| err(lineno, "thread needs bytes="))?,
        chain: chain.ok_or_else(|| err(lineno, "thread needs chain="))?,
        loops,
        check_output: check,
    })
}

/// Parses `4096`, `16K`, `2M` style sizes.
fn parse_bytes(value: &str) -> Result<u64, String> {
    let (digits, mult) = match value.chars().last() {
        Some('K') | Some('k') => (&value[..value.len() - 1], 1024),
        Some('M') | Some('m') => (&value[..value.len() - 1], 1024 * 1024),
        _ => (value, 1),
    };
    digits
        .parse::<u64>()
        .map(|n| n * mult)
        .map_err(|_| format!("bad size `{value}`"))
}

/// Renders an [`AppSpec`] back to configuration text (round-trips through
/// [`parse_app`]).
pub fn render_app(app: &AppSpec) -> String {
    let mut out = format!("app {}\n", app.name);
    for phase in &app.phases {
        out.push_str(&format!("phase \"{}\"\n", phase.name));
        for t in &phase.threads {
            let chain = t
                .chain
                .iter()
                .map(|a| a.0.to_string())
                .collect::<Vec<_>>()
                .join(",");
            out.push_str(&format!(
                "  thread bytes={} chain={} loops={} check={}\n",
                t.dataset_bytes, chain, t.loops, t.check_output
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# Figure-5-like application
app sample
phase "10 Threads: Small"
  thread bytes=16K chain=0,3 loops=2 check=true
  thread bytes=16384 chain=1 loops=1 check=false
phase "big"
  thread bytes=4M chain=2,4,5 loops=1 check=true
"#;

    #[test]
    fn parses_sample() {
        let app = parse_app(SAMPLE).unwrap();
        assert_eq!(app.name, "sample");
        assert_eq!(app.phases.len(), 2);
        assert_eq!(app.phases[0].name, "10 Threads: Small");
        assert_eq!(app.phases[0].threads.len(), 2);
        let t = &app.phases[0].threads[0];
        assert_eq!(t.dataset_bytes, 16 * 1024);
        assert_eq!(t.chain, vec![AccelInstanceId(0), AccelInstanceId(3)]);
        assert_eq!(t.loops, 2);
        assert!(t.check_output);
        assert_eq!(app.phases[1].threads[0].dataset_bytes, 4 * 1024 * 1024);
    }

    #[test]
    fn roundtrip_render_parse() {
        let app = parse_app(SAMPLE).unwrap();
        let rendered = render_app(&app);
        let reparsed = parse_app(&rendered).unwrap();
        assert_eq!(app, reparsed);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let app =
            parse_app("app x\n# nothing\n\nphase \"p\"\n  thread bytes=64 chain=0\n").unwrap();
        assert_eq!(app.phases[0].threads.len(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_app("app x\nthread bytes=64 chain=0\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("outside any phase"));

        let e = parse_app("app x\nphase \"p\"\n  thread chain=0\n").unwrap_err();
        assert!(e.message.contains("needs bytes"));

        let e = parse_app("bogus directive\n").unwrap_err();
        assert!(e.message.contains("unknown directive"));

        let e = parse_app("app x\nphase \"p\"\n  thread bytes=64 chain=\n").unwrap_err();
        assert!(e.message.contains("bad accelerator id"));

        let e = parse_app("app x\nphase \"p\"\n  thread bytes=64 chain=0 loops=0\n").unwrap_err();
        assert!(e.message.contains("at least 1"));
    }

    #[test]
    fn missing_header_is_an_error() {
        let e = parse_app("phase \"p\"\n").unwrap_err();
        assert!(e.to_string().contains("missing `app"));
    }

    #[test]
    fn size_suffixes() {
        assert_eq!(parse_bytes("64").unwrap(), 64);
        assert_eq!(parse_bytes("2K").unwrap(), 2048);
        assert_eq!(parse_bytes("2k").unwrap(), 2048);
        assert_eq!(parse_bytes("3M").unwrap(), 3 * 1024 * 1024);
        assert!(parse_bytes("x").is_err());
    }
}
