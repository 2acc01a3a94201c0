//! The newline-delimited text wire protocol.
//!
//! Every frame is one line of UTF-8 terminated by `\n`. Client
//! requests:
//!
//! | Request               | Reply                                 |
//! |-----------------------|---------------------------------------|
//! | `PUSH <path> <ts>`    | `OK` (suppressed after `NOACK`), `LATE` if the record's timeunit is already closed, or `ERR <why>` |
//! | `SUBSCRIBE [FROM <unit>]` | `OK subscribed from=<unit>`, then asynchronous `EVENT …` frames; with `FROM`, retained events of units `≥ <unit>` are replayed first and the live stream splices on gap-free |
//! | `QUERY <from> <to> [PREFIX <path>] [LEVEL <n>] [LIMIT <k>]` | `EVENT …` frames for retained events with unit in `[from, to]` (inclusive), then `OK n=<count>` |
//! | `STATS`               | one `STATS key=value …` line          |
//! | `STATS JSON`          | one JSON object with every registered counter, gauge, and latency-histogram summary (the `tiresias top` feed) |
//! | `NOACK`               | `OK` — from now on `PUSH` only answers `LATE`/`ERR`, not `OK` |
//! | `PING`                | `PONG`                                |
//! | `HELLO v2`            | `OK v2` if the server speaks [wire protocol v2](v2), `ERR` otherwise; the session stays text |
//! | `UPGRADE`             | `OK upgraded`, then the **inbound** stream switches to binary [v2 frames](v2) (replies stay text lines) |
//! | `QUIT`                | `BYE`, then the server closes the session |
//! | `SHUTDOWN`            | `OK shutting down`, then the whole daemon drains and exits |
//!
//! `PUSH` takes the category path first and the timestamp (seconds)
//! last; the path is everything between, so labels may contain spaces
//! (`PUSH TV/No Service 1712345678`). Anything unparseable gets an
//! `ERR <why>` reply and the session stays usable — a malformed line
//! never wedges the connection or the ingest engine. Blank lines are
//! ignored.
//!
//! `QUERY` reads the server's retained report store (bounded by
//! `--retain-units`): `PREFIX` restricts to events at or under a
//! category path (it may contain spaces and runs until the `LEVEL` /
//! `LIMIT` keyword or end of line), `LEVEL` to an exact hierarchy
//! depth, and `LIMIT` caps the reply batch (default 1000, hard cap
//! 10000). Queries are answered off a read-mostly lock — they never
//! stall record admission.
//!
//! `SUBSCRIBE FROM <unit>` is the catch-up path for a reconnecting or
//! lag-dropped subscriber: the server replays the retained events of
//! units `≥ <unit>` in order, then splices onto the live stream with
//! no gap and no duplicates (frames are sequenced by store position;
//! the reply's `from=` reports where the replay actually started, which
//! is later than requested when older history was already evicted).
//!
//! Anomaly events broadcast to subscribers are `key=value` frames with
//! the path last (it may contain spaces):
//!
//! ```text
//! EVENT unit=9 time=8100 level=2 kind=spike actual=80 forecast=8.25 path=TV/No Service
//! ```

pub mod v2;

use tiresias_core::AnomalyEvent;

/// Default number of events a `QUERY` returns when `LIMIT` is absent.
pub const DEFAULT_QUERY_LIMIT: usize = 1_000;
/// Hard cap on a single `QUERY` reply batch.
pub const MAX_QUERY_LIMIT: usize = 10_000;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Ingest one record: category path + timestamp in seconds.
    Push {
        /// `/`-separated category path.
        path: String,
        /// Record timestamp in seconds.
        t_secs: u64,
    },
    /// Start streaming anomaly events to this session, optionally
    /// replaying retained history first.
    Subscribe {
        /// Replay retained events of units `≥ from` before splicing
        /// onto the live stream (`None` = live only).
        from: Option<u64>,
    },
    /// Query the retained report store.
    Query {
        /// First timeunit of the range (inclusive).
        from_unit: u64,
        /// Last timeunit of the range (inclusive).
        to_unit: u64,
        /// Restrict to events at or under this category path.
        prefix: Option<String>,
        /// Restrict to events at exactly this hierarchy level.
        level: Option<usize>,
        /// Cap the reply batch (clamped to [`MAX_QUERY_LIMIT`]).
        limit: Option<usize>,
    },
    /// Report server metrics.
    Stats {
        /// `true` for `STATS JSON` — the full telemetry registry as one
        /// JSON object instead of the legacy `key=value` line.
        json: bool,
    },
    /// Suppress per-`PUSH` `OK` acknowledgements for this session.
    Noack,
    /// Liveness probe.
    Ping,
    /// Capability probe for [wire protocol v2](v2); answered `OK v2`
    /// without changing the session's mode.
    Hello,
    /// Switch the session's inbound stream to binary [v2 frames](v2).
    Upgrade,
    /// Close this session.
    Quit,
    /// Gracefully shut the whole daemon down.
    Shutdown,
}

/// Longest category path a `PUSH` may carry — wire v2's label cap, so
/// both protocols admit the same paths (and far below what the
/// write-ahead log's record format can hold).
pub const MAX_PATH_BYTES: usize = v2::MAX_LABEL_BYTES as usize;

/// Longest request line a session buffers: the longest legal `PUSH`
/// (a [`MAX_PATH_BYTES`] path, the command word, a 20-digit timestamp)
/// with room to spare. A longer line is answered `ERR` and skipped.
pub const MAX_LINE_BYTES: usize = MAX_PATH_BYTES + 64;

/// Splits a request line into its command word and trimmed operands.
fn split_command(line: &str) -> (&str, &str) {
    match line.split_once(char::is_whitespace) {
        Some((command, rest)) => (command, rest.trim()),
        None => (line, ""),
    }
}

/// The borrowed form of a `PUSH` line, for the session hot path:
/// `Some` with the parsed `(path, timestamp)` — or the reason it is
/// malformed — when `line` is a `PUSH`, `None` for any other request.
/// Agrees with [`parse_request`] on every line.
pub(crate) fn parse_push(line: &str) -> Option<Result<(&str, u64), String>> {
    match split_command(line.trim()) {
        ("PUSH", rest) => Some(split_push(rest)),
        _ => None,
    }
}

/// Parses one request line. Returns `Ok(None)` for blank lines (which
/// are ignored) and `Err` with a human-readable reason for malformed
/// input — the reason is sent back verbatim in the `ERR` reply.
pub fn parse_request(line: &str) -> Result<Option<Request>, String> {
    let line = line.trim();
    if line.is_empty() {
        return Ok(None);
    }
    let (command, rest) = split_command(line);
    match command {
        "PUSH" => {
            let (path, t_secs) = split_push(rest)?;
            Ok(Some(Request::Push { path: path.to_string(), t_secs }))
        }
        "SUBSCRIBE" => {
            if rest.is_empty() {
                return Ok(Some(Request::Subscribe { from: None }));
            }
            let Some(unit) = rest.strip_prefix("FROM").map(str::trim) else {
                return Err("SUBSCRIBE takes no arguments except FROM <unit>".to_string());
            };
            let from = unit.parse::<u64>().map_err(|_| {
                format!("SUBSCRIBE FROM unit `{unit}` is not a non-negative integer")
            })?;
            Ok(Some(Request::Subscribe { from: Some(from) }))
        }
        "QUERY" => parse_query(rest).map(Some),
        "STATS" => match rest {
            "" => Ok(Some(Request::Stats { json: false })),
            "JSON" => Ok(Some(Request::Stats { json: true })),
            _ => Err("STATS takes no arguments except JSON".to_string()),
        },
        "HELLO" => match rest {
            "v2" => Ok(Some(Request::Hello)),
            _ => Err("HELLO recognises only the `v2` capability".to_string()),
        },
        "NOACK" | "PING" | "UPGRADE" | "QUIT" | "SHUTDOWN" => {
            if !rest.is_empty() {
                return Err(format!("{command} takes no arguments"));
            }
            Ok(Some(match command {
                "NOACK" => Request::Noack,
                "PING" => Request::Ping,
                "UPGRADE" => Request::Upgrade,
                "QUIT" => Request::Quit,
                _ => Request::Shutdown,
            }))
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

/// Splits the operand list of a `PUSH` request — everything up to the
/// last whitespace field is the category path (which may itself contain
/// spaces), the last field is the timestamp. Borrowed so allocation-free
/// callers (the router's bulk forwarding path) can route on the path
/// slice without materialising a `Request`.
pub(crate) fn split_push(rest: &str) -> Result<(&str, u64), String> {
    // Fast path: a word-at-a-time scan for the last ASCII space, valid
    // when everything after it is ASCII digits — digits are never
    // whitespace, so no whitespace of any kind (ASCII or Unicode) can
    // follow that space and the slow path below would split at the same
    // position. Well-formed `PUSH` lines always take this path.
    let fast = crate::scan::rfind_space(rest.as_bytes())
        .map(|i| (&rest[..i], &rest[i + 1..]))
        .filter(|(_, ts)| !ts.is_empty() && ts.bytes().all(|b| b.is_ascii_digit()));
    let Some((path, ts)) = fast.or_else(|| rest.rsplit_once(char::is_whitespace)) else {
        return Err("PUSH needs a category path and a timestamp".to_string());
    };
    let path = path.trim();
    if path.is_empty() {
        return Err("PUSH category path is empty".to_string());
    }
    if path.len() > MAX_PATH_BYTES {
        return Err(format!(
            "PUSH category path of {} bytes exceeds the {MAX_PATH_BYTES}-byte bound",
            path.len()
        ));
    }
    let t_secs = ts
        .parse::<u64>()
        .map_err(|_| format!("PUSH timestamp `{ts}` is not a non-negative integer"))?;
    Ok((path, t_secs))
}

/// Parses the operand list of a `QUERY` request:
/// `<from> <to> [PREFIX <path>] [LEVEL <n>] [LIMIT <k>]`, clauses in
/// that order. The prefix path may contain spaces; it runs until the
/// next clause keyword or the end of the line.
fn parse_query(rest: &str) -> Result<Request, String> {
    const USAGE: &str = "QUERY needs <from_unit> <to_unit> [PREFIX <path>] [LEVEL <n>] [LIMIT <k>]";
    let Some((from_s, rest)) = rest.split_once(char::is_whitespace) else {
        return Err(USAGE.to_string());
    };
    let (to_s, mut tail) = match rest.trim().split_once(char::is_whitespace) {
        Some((t, tail)) => (t, tail.trim()),
        None => (rest.trim(), ""),
    };
    let unit = |name: &str, raw: &str| {
        raw.parse::<u64>()
            .map_err(|_| format!("QUERY {name} `{raw}` is not a non-negative integer"))
    };
    let from_unit = unit("from_unit", from_s)?;
    let to_unit = unit("to_unit", to_s)?;
    let mut prefix = None;
    if let Some(r) = tail.strip_prefix("PREFIX") {
        let r = r.trim_start();
        // The path runs to the next clause keyword or the line's end.
        let (path, remainder) = [" LEVEL ", " LIMIT "]
            .iter()
            .filter_map(|kw| r.find(kw).map(|i| (&r[..i], r[i..].trim_start())))
            .min_by_key(|&(p, _)| p.len())
            .unwrap_or((r, ""));
        let path = path.trim();
        if path.is_empty() {
            return Err("QUERY PREFIX needs a category path".to_string());
        }
        prefix = Some(path.to_string());
        tail = remainder;
    }
    let mut level = None;
    if let Some(r) = tail.strip_prefix("LEVEL") {
        let (raw, remainder) = match r.trim_start().split_once(char::is_whitespace) {
            Some((v, rem)) => (v, rem.trim_start()),
            None => (r.trim(), ""),
        };
        level = Some(
            raw.parse::<usize>()
                .map_err(|_| format!("QUERY LEVEL `{raw}` is not a non-negative integer"))?,
        );
        tail = remainder;
    }
    let mut limit = None;
    if let Some(r) = tail.strip_prefix("LIMIT") {
        let raw = r.trim();
        limit = Some(
            raw.parse::<usize>()
                .map_err(|_| format!("QUERY LIMIT `{raw}` is not a positive integer"))?,
        );
        tail = "";
    }
    if !tail.is_empty() {
        return Err(format!("QUERY has trailing input `{tail}`; {USAGE}"));
    }
    Ok(Request::Query { from_unit, to_unit, prefix, level, limit })
}

/// Formats an anomaly event as the `EVENT` broadcast frame (no
/// trailing newline). The path comes last so it may contain spaces.
pub fn format_event(e: &AnomalyEvent) -> String {
    format!(
        "EVENT unit={} time={} level={} kind={} actual={} forecast={} path={}",
        e.unit, e.time_secs, e.level, e.kind, e.actual, e.forecast, e.path
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_parses_with_spaces_in_path() {
        assert_eq!(
            parse_request("PUSH TV/No Service 1234").unwrap(),
            Some(Request::Push { path: "TV/No Service".to_string(), t_secs: 1234 })
        );
        assert_eq!(
            parse_request("  PUSH a/b 0 ").unwrap(),
            Some(Request::Push { path: "a/b".to_string(), t_secs: 0 })
        );
    }

    #[test]
    fn push_refuses_paths_over_the_label_cap() {
        // Multi-byte, so a byte-level cut would land inside a char.
        let fits = "é".repeat(MAX_PATH_BYTES / 2);
        assert_eq!(
            parse_request(&format!("PUSH {fits} 7")).unwrap(),
            Some(Request::Push { path: fits.clone(), t_secs: 7 })
        );
        let long = format!("{fits}é");
        for line in [format!("PUSH {long} 7"), format!("PUSH {long} +7")] {
            let why = parse_request(&line).unwrap_err();
            assert!(why.contains("4098 bytes exceeds the 4096-byte bound"), "{why}");
            assert_eq!(parse_push(&line), Some(Err(why)));
        }
    }

    #[test]
    fn parse_push_agrees_with_parse_request() {
        for line in ["PUSH a/b 12", "  PUSH TV/No Service 9 ", "PUSH", "PUSH x", "PUSH a/b 1.5"] {
            let borrowed = parse_push(line).expect("a PUSH line");
            match parse_request(line) {
                Ok(Some(Request::Push { path, t_secs })) => {
                    assert_eq!(borrowed, Ok((path.as_str(), t_secs)), "{line:?}");
                }
                Err(why) => assert_eq!(borrowed, Err(why), "{line:?}"),
                other => panic!("{line:?} parsed as {other:?}"),
            }
        }
        for line in ["", "  ", "PUSHX a 1", "push a 1", "STATS", "QUERY 1 2"] {
            assert_eq!(parse_push(line), None, "{line:?}");
        }
    }

    #[test]
    fn simple_commands_parse() {
        assert_eq!(parse_request("SUBSCRIBE").unwrap(), Some(Request::Subscribe { from: None }));
        assert_eq!(parse_request("STATS").unwrap(), Some(Request::Stats { json: false }));
        assert_eq!(parse_request("STATS JSON").unwrap(), Some(Request::Stats { json: true }));
        assert_eq!(parse_request("NOACK").unwrap(), Some(Request::Noack));
        assert_eq!(parse_request("PING").unwrap(), Some(Request::Ping));
        assert_eq!(parse_request("QUIT").unwrap(), Some(Request::Quit));
        assert_eq!(parse_request("SHUTDOWN").unwrap(), Some(Request::Shutdown));
        assert_eq!(parse_request("   ").unwrap(), None, "blank lines are ignored");
    }

    #[test]
    fn hello_and_upgrade_parse() {
        assert_eq!(parse_request("HELLO v2").unwrap(), Some(Request::Hello));
        assert_eq!(parse_request("UPGRADE").unwrap(), Some(Request::Upgrade));
        assert!(parse_request("HELLO").unwrap_err().contains("v2"));
        assert!(parse_request("HELLO v3").unwrap_err().contains("v2"));
        assert!(parse_request("UPGRADE now").unwrap_err().contains("no arguments"));
    }

    #[test]
    fn split_push_fast_and_slow_paths_agree() {
        // Fast path (all-digit tail after an ASCII space) and the
        // rsplit_once fallback must be indistinguishable.
        for rest in ["a/b 12", "TV/No Service 1712345678", "a  7", "sp ace\u{a0}path 9", "x 00042"]
        {
            let slow = rest
                .rsplit_once(char::is_whitespace)
                .map(|(p, t)| (p.trim(), t.parse::<u64>().unwrap()))
                .unwrap();
            assert_eq!(split_push(rest), Ok(slow), "{rest:?}");
        }
        // Non-digit tails (signs, unicode digits, floats) fall back —
        // and keep the old semantics (`u64::parse` accepts a `+`).
        assert_eq!(split_push("a/b +12"), Ok(("a/b", 12)));
        assert!(split_push("a/b 1.5").unwrap_err().contains("1.5"));
        assert!(!split_push("a/b \u{0661}").unwrap_err().is_empty());
        // Overflow still errors through the fast path.
        assert!(split_push("a/b 99999999999999999999999").is_err());
    }

    #[test]
    fn subscribe_from_parses() {
        assert_eq!(
            parse_request("SUBSCRIBE FROM 17").unwrap(),
            Some(Request::Subscribe { from: Some(17) })
        );
        assert!(parse_request("SUBSCRIBE FROM").unwrap_err().contains("not a non-negative"));
        assert!(parse_request("SUBSCRIBE FROM x").unwrap_err().contains("`x`"));
        assert!(parse_request("SUBSCRIBE now").unwrap_err().contains("FROM"));
    }

    #[test]
    fn query_parses_all_clauses() {
        assert_eq!(
            parse_request("QUERY 3 9").unwrap(),
            Some(Request::Query {
                from_unit: 3,
                to_unit: 9,
                prefix: None,
                level: None,
                limit: None
            })
        );
        assert_eq!(
            parse_request("QUERY 0 5 PREFIX TV/No Service LEVEL 2 LIMIT 10").unwrap(),
            Some(Request::Query {
                from_unit: 0,
                to_unit: 5,
                prefix: Some("TV/No Service".to_string()),
                level: Some(2),
                limit: Some(10),
            })
        );
        assert_eq!(
            parse_request("QUERY 0 5 PREFIX a/b").unwrap(),
            Some(Request::Query {
                from_unit: 0,
                to_unit: 5,
                prefix: Some("a/b".to_string()),
                level: None,
                limit: None,
            })
        );
        assert_eq!(
            parse_request("QUERY 0 5 LIMIT 3").unwrap(),
            Some(Request::Query {
                from_unit: 0,
                to_unit: 5,
                prefix: None,
                level: None,
                limit: Some(3)
            })
        );
    }

    #[test]
    fn query_rejects_malformed_input() {
        assert!(parse_request("QUERY").unwrap_err().contains("QUERY needs"));
        assert!(parse_request("QUERY 1").unwrap_err().contains("QUERY needs"));
        assert!(parse_request("QUERY a 2").unwrap_err().contains("from_unit"));
        assert!(parse_request("QUERY 1 b").unwrap_err().contains("to_unit"));
        assert!(parse_request("QUERY 1 2 PREFIX").unwrap_err().contains("PREFIX"));
        assert!(parse_request("QUERY 1 2 LEVEL x").unwrap_err().contains("LEVEL"));
        assert!(parse_request("QUERY 1 2 LIMIT -1").unwrap_err().contains("LIMIT"));
        assert!(parse_request("QUERY 1 2 BOGUS").unwrap_err().contains("trailing"));
    }

    #[test]
    fn malformed_lines_produce_reasons() {
        assert!(parse_request("FLY me to the moon").unwrap_err().contains("unknown command"));
        assert!(parse_request("PUSH").unwrap_err().contains("needs"));
        assert!(parse_request("PUSH lonely-token").unwrap_err().contains("needs"));
        assert!(parse_request("PUSH a/b notanumber").unwrap_err().contains("notanumber"));
        assert!(parse_request("PUSH  42").unwrap_err().contains("needs"));
        assert!(parse_request("STATS now").unwrap_err().contains("no arguments"));
        assert!(parse_request("push a 1").unwrap_err().contains("unknown command"));
    }

    #[test]
    fn event_frame_puts_path_last() {
        let mut tree = tiresias_hierarchy::Tree::new("All");
        let e = AnomalyEvent {
            node: tree.insert_str("TV/No Service"),
            path: "TV/No Service".parse().unwrap(),
            level: 2,
            unit: 9,
            time_secs: 8100,
            actual: 80.0,
            forecast: 8.25,
            kind: tiresias_core::AnomalyKind::Spike,
        };
        let frame = format_event(&e);
        assert!(frame.ends_with("path=TV/No Service"), "{frame}");
        assert!(frame.contains("unit=9"));
        assert!(frame.contains("kind=spike"));
    }
}
