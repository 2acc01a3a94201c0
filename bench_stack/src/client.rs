//! Socket clients: the benchmark reaches the daemon only the way an
//! operator's tools do — text lines and v2 frames over TCP, and the
//! daemon's own `STATS JSON` for its internals.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use serde::Value;

/// Generous per-read deadline: a healthy daemon answers in
/// milliseconds, and a hung one must fail the run, not hang it.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// A line-oriented connection (requests may be text lines or raw v2
/// frame bytes; replies are always text lines).
pub struct LineConn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
    /// The last read timed out mid-line; `line` holds the part that
    /// arrived and the next read continues it.
    partial: bool,
}

impl LineConn {
    pub fn connect(addr: SocketAddr) -> io::Result<LineConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(LineConn { stream, reader, line: String::new(), partial: false })
    }

    pub fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")
    }

    /// The next reply line, without its line ending. After a timeout
    /// the call may simply be repeated: no byte is lost.
    pub fn read_line(&mut self) -> io::Result<&str> {
        if !self.partial {
            self.line.clear();
        }
        match self.reader.read_line(&mut self.line) {
            Ok(0) => {
                Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed the connection"))
            }
            Ok(_) => {
                self.partial = false;
                Ok(self.line.trim_end())
            }
            Err(e) => {
                self.partial = true;
                Err(e)
            }
        }
    }

    pub fn set_read_timeout(&self, timeout: Duration) -> io::Result<()> {
        self.stream.set_read_timeout(Some(timeout))
    }

    /// Sends `request` and insists on `expected` as the reply.
    pub fn expect(&mut self, request: &str, expected: &str) -> io::Result<()> {
        self.send_line(request)?;
        let reply = self.read_line()?;
        if reply == expected {
            Ok(())
        } else {
            Err(io::Error::other(format!("`{request}` answered `{reply}`, expected `{expected}`")))
        }
    }

    /// One `QUERY`: the `EVENT` lines and the closing `OK n=…` (or
    /// `ERR …`) line.
    pub fn query(&mut self, request: &str) -> io::Result<(Vec<String>, String)> {
        self.send_line(request)?;
        let mut events = Vec::new();
        loop {
            let line = self.read_line()?;
            if line.starts_with("EVENT ") {
                events.push(line.to_string());
            } else {
                return Ok((events, line.to_string()));
            }
        }
    }

    pub fn stats(&mut self) -> io::Result<Stats> {
        self.send_line("STATS JSON")?;
        let line = self.read_line()?;
        Stats::parse(line).map_err(io::Error::other)
    }
}

/// Every retained anomaly of units `0..=last_unit` as sorted event keys
/// ([`crate::oracle::event_key`]), paged so no reply reaches the
/// protocol's batch cap. `Err` carries the first failed reply.
pub fn query_all(conn: &mut LineConn, last_unit: u64) -> io::Result<Vec<String>> {
    const PAGE_UNITS: u64 = 64;
    const LIMIT: usize = 10_000;
    let mut events = Vec::new();
    let mut from = 0;
    while from <= last_unit {
        let to = (from + PAGE_UNITS - 1).min(last_unit);
        let (page, tail) = conn.query(&format!("QUERY {from} {to} LIMIT {LIMIT}"))?;
        if tail != format!("OK n={}", page.len()) || page.len() >= LIMIT {
            return Err(io::Error::other(format!("QUERY {from} {to} answered `{tail}`")));
        }
        events.extend(page);
        from = to + 1;
    }
    Ok(crate::oracle::event_keys(&events))
}

/// A parsed `STATS JSON` snapshot.
#[derive(Debug, Default, Clone)]
pub struct Stats {
    scalars: Vec<(String, f64)>,
    hists: Vec<(String, Hist)>,
}

/// One latency histogram summary of a snapshot.
#[derive(Debug, Default, Clone, Copy)]
pub struct Hist {
    pub p50_ms: f64,
}

fn number(v: &Value) -> f64 {
    match v {
        Value::I64(x) => *x as f64,
        Value::U64(x) => *x as f64,
        Value::F64(x) => *x,
        _ => 0.0,
    }
}

impl Stats {
    fn parse(line: &str) -> Result<Stats, String> {
        let root = serde_json::parse_value(line).map_err(|e| format!("STATS JSON: {e}"))?;
        let section = |name: &str| -> Result<&[Value], String> {
            match root.field(name) {
                Ok(Value::Seq(items)) => Ok(items),
                _ => Err(format!("STATS JSON has no `{name}` array: {line}")),
            }
        };
        let name_of = |item: &Value| match item.field("name") {
            Ok(Value::Str(s)) => s.clone(),
            _ => String::new(),
        };
        let mut stats = Stats::default();
        for item in section("counters")?.iter().chain(section("gauges")?) {
            stats.scalars.push((name_of(item), item.field("value").map(number).unwrap_or(0.0)));
        }
        for item in section("histograms")? {
            stats.hists.push((
                name_of(item),
                Hist { p50_ms: item.field("p50_ms").map(number).unwrap_or(0.0) },
            ));
        }
        Ok(stats)
    }

    /// Sum of a counter or gauge over all its label sets (0 if absent).
    pub fn scalar(&self, name: &str) -> f64 {
        // `+ 0.0`: the sum of no terms is -0.0, which prints as "-0".
        self.scalars.iter().filter(|(n, _)| n == name).map(|(_, v)| v).sum::<f64>() + 0.0
    }

    /// Every label set's value of a counter or gauge.
    pub fn scalar_each(&self, name: &str) -> Vec<f64> {
        self.scalars.iter().filter(|(n, _)| n == name).map(|(_, v)| *v).collect()
    }

    pub fn hist(&self, name: &str) -> Hist {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| *h).unwrap_or_default()
    }
}

/// Waits until `addr`'s engine has closed every unit below `unit` and
/// the closes' events are final. The watermark gauge flips at the start
/// of a close; the `STATS` handler serialises behind the scheduler's
/// state lock, so one more snapshot after the flip was seen returns
/// only once that close — merge and broadcast included — is done.
/// Returns that final snapshot.
pub fn wait_closed(addr: SocketAddr, unit: u64, deadline: Instant) -> io::Result<Stats> {
    let mut conn = LineConn::connect(addr)?;
    loop {
        if conn.stats()?.scalar("tiresias_watermark_unit") >= unit as f64 {
            return conn.stats();
        }
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("unit {unit} never closed on {addr}"),
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// CPU seconds the calling thread has consumed, from
/// `/proc/thread-self/schedstat` (nanosecond run time), falling back to
/// the tick counters of `/proc/thread-self/stat`; 0 where neither is
/// readable.
pub fn thread_cpu_s() -> f64 {
    if let Ok(s) = std::fs::read_to_string("/proc/thread-self/schedstat") {
        if let Some(ns) = s.split_whitespace().next().and_then(|f| f.parse::<u64>().ok()) {
            return ns as f64 / 1e9;
        }
    }
    if let Ok(s) = std::fs::read_to_string("/proc/thread-self/stat") {
        // Fields after the parenthesised command name; utime and stime
        // are the 14th and 15th overall, in 100 Hz ticks.
        if let Some(rest) = s.rsplit_once(')').map(|(_, rest)| rest) {
            let fields: Vec<&str> = rest.split_whitespace().collect();
            if let (Some(u), Some(s)) = (fields.get(11), fields.get(12)) {
                let ticks = u.parse::<u64>().unwrap_or(0) + s.parse::<u64>().unwrap_or(0);
                return ticks as f64 / 100.0;
            }
        }
    }
    0.0
}

/// The fields of a v2 frame ack, `OK frame=<seq> n=<n> late=<l>
/// ahead=<a>`; `None` for anything else (an `ERR`, a degraded frame).
pub fn parse_frame_ack(line: &str) -> Option<(u64, u64, u64)> {
    let rest = line.strip_prefix("OK frame=")?;
    let mut fields = rest.split_whitespace().skip(1);
    let mut take = |key: &str| -> Option<u64> { fields.next()?.strip_prefix(key)?.parse().ok() };
    Some((take("n=")?, take("late=")?, take("ahead=")?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_acks_parse() {
        assert_eq!(parse_frame_ack("OK frame=7 n=120 late=1 ahead=0"), Some((120, 1, 0)));
        assert_eq!(parse_frame_ack("ERR frame=7 degraded=a n=0 late=0 ahead=0"), None);
        assert_eq!(parse_frame_ack("PONG frame=7"), None);
    }

    #[test]
    fn stats_snapshot_parses_and_sums_label_sets() {
        let line = r#"{"counters":[{"name":"c","labels":{},"value":3}],"gauges":[{"name":"g","labels":{"node":"a"},"value":2},{"name":"g","labels":{"node":"b"},"value":1.5}],"histograms":[{"name":"h","labels":{},"count":4,"mean_ms":0.5,"p50_ms":0.4,"p90_ms":1,"p99_ms":1,"p999_ms":1,"max_ms":1}]}"#;
        let stats = Stats::parse(line).unwrap();
        assert_eq!(stats.scalar("c"), 3.0);
        assert_eq!(stats.scalar("g"), 3.5);
        assert_eq!(stats.scalar_each("g"), vec![2.0, 1.5]);
        assert_eq!(stats.hist("h").p50_ms, 0.4);
        assert_eq!(stats.hist("missing").p50_ms, 0.0);
        assert!(thread_cpu_s() >= 0.0);
    }
}
