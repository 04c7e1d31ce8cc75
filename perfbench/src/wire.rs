//! The wire side: a spawned `hq serve --listen 127.0.0.1:0` and
//! closed-loop loopback connections that each wait for a reply before
//! sending the next line.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// How long a connection waits for one reply before counting the
/// request as timed out.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// A running `hq serve`. Dropping it kills the process and waits.
pub struct ServeProc {
    child: Child,
    /// Kept open so the server never writes into a closed pipe.
    _stderr: BufReader<ChildStderr>,
    pub addr: SocketAddr,
    /// Spawn → the `listening on` line: load, annotate, encode, pool warm.
    pub setup_s: f64,
}

impl ServeProc {
    pub fn spawn(hq: &Path, db: &Path) -> Result<ServeProc, String> {
        let start = Instant::now();
        let mut child = Command::new(hq)
            .arg("serve")
            .arg("--db")
            .arg(db)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", hq.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            match stderr.read_line(&mut line) {
                Ok(n) if n > 0 && !line.contains("listening on ") => continue,
                _ => break,
            }
        }
        let setup_s = start.elapsed().as_secs_f64();
        let addr = line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("hq serve did not start: {}", line.trim()));
        };
        Ok(ServeProc {
            child,
            _stderr: stderr,
            addr,
            setup_s,
        })
    }

    /// The server's peak resident set (`VmHWM`), in kB.
    pub fn peak_rss_kb(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }

    /// Sends `shutdown` and waits for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let reply = Conn::open(self.addr)
            .and_then(|mut c| c.call("shutdown"))
            .map_err(|e| format!("shutdown: {e}"))?;
        if reply != "ok: shutting down" {
            return Err(format!("shutdown replied {reply:?}"));
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("hq serve exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("hq serve did not exit after shutdown".to_owned())
    }
}

impl Drop for ServeProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Spawns `hq serve` `times` times in a row, shutting all but the last
/// down. Returns every set-up time and the last server.
pub fn spawn_repeated(hq: &Path, db: &Path, times: usize) -> Result<(Vec<f64>, ServeProc), String> {
    let mut setups = Vec::new();
    loop {
        let server = ServeProc::spawn(hq, db)?;
        setups.push(server.setup_s);
        if setups.len() == times {
            return Ok((setups, server));
        }
        server.shutdown()?;
    }
}

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    /// Sends one line and reads its one reply line.
    pub fn call(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(reply.trim_end().to_owned())
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verb {
    Read,
    Fix,
    Write,
    Pin,
    Unpin,
}

impl Verb {
    pub fn of(line: &str) -> Verb {
        match line {
            "pin" => Verb::Pin,
            "unpin" => Verb::Unpin,
            l if l.starts_with("? fix") => Verb::Fix,
            l if l.starts_with('?') => Verb::Read,
            _ => Verb::Write,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Verb::Read => "read",
            Verb::Fix => "fix",
            Verb::Write => "write",
            Verb::Pin => "pin",
            Verb::Unpin => "unpin",
        }
    }
}

/// One request and what came back.
#[derive(Clone, Debug)]
pub struct Record {
    pub line: String,
    /// The reply line, or why there was none (refused, dropped, timed out).
    pub reply: Result<String, String>,
    pub started: Instant,
    pub secs: f64,
}

impl Record {
    pub fn verb(&self) -> Verb {
        Verb::of(&self.line)
    }

    /// An `error:` reply or no reply at all.
    pub fn failed(&self) -> bool {
        match &self.reply {
            Ok(r) => r.starts_with("error:"),
            Err(_) => true,
        }
    }
}

/// Runs each script on its own connection, all starting together;
/// each connection sends its next line only after the previous reply.
/// Returns the records per connection and the wall time of the phase.
pub fn closed_loop(addr: SocketAddr, scripts: &[Vec<String>]) -> (Vec<Vec<Record>>, f64) {
    let barrier = Arc::new(Barrier::new(scripts.len() + 1));
    std::thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .iter()
            .map(|script| {
                let barrier = barrier.clone();
                scope.spawn(move || {
                    let conn = Conn::open(addr);
                    barrier.wait();
                    run_script(conn, script)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let records: Vec<Vec<Record>> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (records, start.elapsed().as_secs_f64())
    })
}

/// Sends `script` in order. Once the connection fails, the rest of the
/// script counts as dropped.
pub fn run_script(conn: std::io::Result<Conn>, script: &[String]) -> Vec<Record> {
    let mut conn = match conn {
        Ok(c) => Some(c),
        Err(e) => {
            return script
                .iter()
                .map(|line| Record {
                    line: line.clone(),
                    reply: Err(format!("connect: {e}")),
                    started: Instant::now(),
                    secs: 0.0,
                })
                .collect()
        }
    };
    let mut out = Vec::with_capacity(script.len());
    for line in script {
        let start = Instant::now();
        let reply = match conn.as_mut() {
            Some(c) => c.call(line).map_err(|e| e.to_string()),
            None => Err("connection dropped".to_owned()),
        };
        if reply.is_err() {
            conn = None;
        }
        out.push(Record {
            line: line.clone(),
            reply,
            started: start,
            secs: start.elapsed().as_secs_f64(),
        });
    }
    out
}

/// The integer counters of the wire `stats` line.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    pub epoch: u64,
    pub live_epochs: u64,
    pub cached_nodes: u64,
    pub cached_rows: u64,
    pub cached_bytes: u64,
    pub evictions: u64,
    pub ops_performed: u64,
    pub plan_hits: u64,
    pub commits: u64,
    pub batches: u64,
    pub max_group: u64,
    pub queue_depth: u64,
    pub queue_high_water: u64,
    pub rejected_invalid: u64,
    pub rejected_full: u64,
}

/// The `stats` reply with every number replaced by `#`.
const STATS_SHAPE: &str = "epoch #; # live epoch(s); # cached node(s), # rows, # B; \
     # evicted; # ops performed; # plan hit(s); writes: # commit(s), # batch(es), \
     max group #, queue # (hw #), rejected # invalid / # full";

/// Parses a `stats` reply; `None` unless it has exactly the shape of
/// [`STATS_SHAPE`].
pub fn parse_stats(line: &str) -> Option<WireStats> {
    let mut shape = String::new();
    let mut numbers = Vec::new();
    let mut digits = String::new();
    for c in line.chars().chain(std::iter::once('\n')) {
        if c.is_ascii_digit() {
            digits.push(c);
            continue;
        }
        if !digits.is_empty() {
            numbers.push(digits.parse::<u64>().ok()?);
            digits.clear();
            shape.push('#');
        }
        if c != '\n' {
            shape.push(c);
        }
    }
    if shape != STATS_SHAPE {
        return None;
    }
    let [epoch, live_epochs, cached_nodes, cached_rows, cached_bytes, evictions, ops_performed, plan_hits, commits, batches, max_group, queue_depth, queue_high_water, rejected_invalid, rejected_full] =
        numbers[..]
    else {
        return None;
    };
    Some(WireStats {
        epoch,
        live_epochs,
        cached_nodes,
        cached_rows,
        cached_bytes,
        evictions,
        ops_performed,
        plan_hits,
        commits,
        batches,
        max_group,
        queue_depth,
        queue_high_water,
        rejected_invalid,
        rejected_full,
    })
}

impl WireStats {
    /// The counters as named counts.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("commits", self.commits),
            ("batches", self.batches),
            ("max_group", self.max_group),
            ("queue_high_water", self.queue_high_water),
            ("rejected", self.rejected_invalid + self.rejected_full),
            ("evictions", self.evictions),
            ("ops_performed", self.ops_performed),
            ("plan_hits", self.plan_hits),
            ("live_epochs", self.live_epochs),
            ("cached_rows", self.cached_rows),
            ("cached_bytes", self.cached_bytes),
        ]
    }
}

/// Asks a running server for its `stats` line.
pub fn fetch_stats(addr: SocketAddr) -> Result<WireStats, String> {
    let line = Conn::open(addr)
        .and_then(|mut c| c.call("stats"))
        .map_err(|e| format!("stats: {e}"))?;
    parse_stats(&line).ok_or_else(|| format!("unrecognised stats line: {line}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `stats` reply in the format `hq serve` writes.
    const LINE: &str = "epoch 1; 1 live epoch(s); 7 cached node(s), 120812 rows, 1932888 B; \
        0 evicted; 104777 ops performed; 37 plan hit(s); writes: 3 commit(s), 3 batch(es), \
        max group 1, queue 0 (hw 1), rejected 2 invalid / 0 full";

    #[test]
    fn stats_parser_accepts_the_wire_format() {
        let s = parse_stats(LINE).expect("the current format parses");
        assert_eq!(s.cached_rows, 120812);
        assert_eq!(s.cached_bytes, 1932888);
        assert_eq!(s.ops_performed, 104777);
        assert_eq!(s.plan_hits, 37);
        assert_eq!((s.commits, s.batches, s.max_group), (3, 3, 1));
        assert_eq!((s.queue_high_water, s.rejected_invalid), (1, 2));
        let counts: Vec<u64> = s.counters().into_iter().map(|(_, v)| v).collect();
        assert_eq!(
            counts,
            vec![3, 3, 1, 1, 2, 0, 104777, 37, 1, 120812, 1932888]
        );
    }

    #[test]
    fn stats_parser_rejects_other_lines() {
        assert!(parse_stats("epoch 1").is_none());
        assert!(parse_stats(&LINE.replace("plan hit(s)", "plan hits")).is_none());
        assert!(parse_stats(&format!("{LINE}, 3 more")).is_none());
    }
}
