//! Blocking client for the polyserve wire protocol — the counterpart the
//! tests and `perf_ledger`'s `serve_mix` workload speak through.
//!
//! The connection has `TCP_NODELAY` set and is read through one buffered
//! reader, as the server's end of it is (see [`crate::wire`]); a frame's
//! payload becomes the returned `String` without being copied — a report is
//! tens of kilobytes, and the client's time between two sessions is part of
//! every latency a closed-loop load measures.

use crate::wire::{json_str, json_u64, push_frame, read_frame, write_json, KIND_BINARY, KIND_JSON};
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// What to profile.
#[derive(Debug, Clone, Copy)]
pub enum Submission<'a> {
    /// A workload registered on the server, run through the VM.
    Program {
        /// Registered workload name.
        workload: &'a str,
    },
    /// An uploaded `.ptrace` recording, re-folded offline. The recording's
    /// program id must match the registered workload's program.
    Trace {
        /// Registered workload name (identifies the program).
        workload: &'a str,
        /// The raw recording bytes.
        bytes: &'a [u8],
    },
}

impl Submission<'_> {
    fn workload(&self) -> &str {
        match self {
            Submission::Program { workload } | Submission::Trace { workload, .. } => workload,
        }
    }
}

/// Per-submission knobs.
#[derive(Debug, Clone, Default)]
pub struct SubmitOpts {
    /// Tenant identity for rate limiting and fair scheduling (`anon` when
    /// empty).
    pub tenant: Option<String>,
    /// Fault-plan spec ([`polyresist::FaultPlan::parse`] syntax) injected
    /// into this session.
    pub fault_plan: Option<String>,
    /// Byte budget for this session's retained profiling state.
    pub budget_bytes: Option<u64>,
    /// Session deadline in milliseconds (server default when unset).
    pub deadline_ms: Option<u64>,
}

/// Terminal verdict of one submission.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The session ran (possibly degraded) and delivered a report.
    Done {
        /// Server-assigned session id.
        session: u64,
        /// True when served from the folded-DDG cache.
        cached: bool,
        /// The report object (see `polyfeedback::session_report_json`).
        report_json: String,
        /// Progress frames received while the session folded, in order: one
        /// per [`ServerConfig::progress_interval`](crate::ServerConfig), each
        /// a flat JSON object whose `dyn_ops` / `events_folded` are the run's
        /// heartbeat as of `t_ns` nanoseconds after the fold began (counts
        /// so far — the final totals are in the report).
        /// Empty when the server streams none or the result was cached.
        progress: Vec<String>,
    },
    /// Structured load shedding; retry after the hinted backoff.
    Overloaded {
        /// Client-visible backoff hint.
        retry_after_ms: u64,
        /// `"rate_limited"` or `"queue_full"`.
        reason: String,
    },
    /// Rejected at admission (unknown workload, bad plan, bad recording).
    Rejected {
        /// The server's error rendering.
        error: String,
    },
    /// Accepted, but the session failed terminally (a pipeline error, a
    /// pass-2 `StagePanic` among them, or a panic). The server stays up.
    Failed {
        /// The server's error rendering.
        error: String,
    },
}

/// A blocking connection to a polyserve instance. Requests on one client
/// are strictly sequential — open more clients for concurrency.
pub struct Client {
    /// The socket, behind the buffer it is read through; written directly.
    conn: BufReader<TcpStream>,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            conn: BufReader::new(stream),
        })
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> io::Result<bool> {
        write_json(self.conn.get_mut(), "{\"op\": \"ping\"}")?;
        let frame = self.read_json()?;
        Ok(json_str(&frame, "type").as_deref() == Some("pong"))
    }

    /// Fetch the server's service-metrics JSON (`ServiceStats::to_json`
    /// wrapped in a `metrics` frame; flat keys, so the `wire` helpers
    /// extract counters directly from the returned string).
    pub fn metrics_json(&mut self) -> io::Result<String> {
        write_json(self.conn.get_mut(), "{\"op\": \"metrics\"}")?;
        self.read_json()
    }

    /// Ask the server to stop accepting and drain.
    pub fn shutdown(&mut self) -> io::Result<()> {
        write_json(self.conn.get_mut(), "{\"op\": \"shutdown\"}")?;
        let _ = self.read_json()?;
        Ok(())
    }

    /// Submit one session and block until its terminal frame.
    pub fn submit(&mut self, sub: Submission<'_>, opts: &SubmitOpts) -> io::Result<Outcome> {
        let op = match sub {
            Submission::Program { .. } => "submit",
            Submission::Trace { .. } => "submit_trace",
        };
        let mut req = format!(
            "{{\"op\": \"{op}\", \"workload\": \"{}\"",
            polytrace::json_escape(sub.workload())
        );
        if let Some(t) = &opts.tenant {
            req.push_str(&format!(", \"tenant\": \"{}\"", polytrace::json_escape(t)));
        }
        if let Some(p) = &opts.fault_plan {
            req.push_str(&format!(
                ", \"fault_plan\": \"{}\"",
                polytrace::json_escape(p)
            ));
        }
        if let Some(b) = opts.budget_bytes {
            req.push_str(&format!(", \"budget_bytes\": {b}"));
        }
        if let Some(d) = opts.deadline_ms {
            req.push_str(&format!(", \"deadline_ms\": {d}"));
        }
        req.push('}');
        // The request and the recording that rides behind it are ready
        // together, so they leave together.
        let mut out = Vec::new();
        push_frame(&mut out, KIND_JSON, &[req.as_bytes()])?;
        if let Submission::Trace { bytes, .. } = sub {
            push_frame(&mut out, KIND_BINARY, &[bytes])?;
        }
        self.conn.get_mut().write_all(&out)?;

        let mut session = 0u64;
        let mut accepted = false;
        let mut progress = Vec::new();
        loop {
            let frame = self.read_json()?;
            match json_str(&frame, "type").as_deref() {
                Some("accepted") => {
                    accepted = true;
                    session = json_u64(&frame, "session").unwrap_or(0);
                }
                Some("progress") => progress.push(frame),
                Some("overloaded") => {
                    return Ok(Outcome::Overloaded {
                        retry_after_ms: json_u64(&frame, "retry_after_ms").unwrap_or(50),
                        reason: json_str(&frame, "reason").unwrap_or_default(),
                    })
                }
                Some("final") => {
                    // The report is what follows `"report": ` up to the
                    // frame's closing brace: cut out of the frame in place.
                    let mut report_json = frame;
                    match report_json.find("\"report\": ") {
                        Some(at) => {
                            report_json.pop();
                            report_json.drain(..at + 10);
                        }
                        None => report_json.clear(),
                    }
                    let cached = crate::wire::json_bool(&report_json, "cached").unwrap_or(false);
                    return Ok(Outcome::Done {
                        session,
                        cached,
                        report_json,
                        progress,
                    });
                }
                Some("error") => {
                    let error = json_str(&frame, "error").unwrap_or_default();
                    return Ok(if accepted {
                        Outcome::Failed { error }
                    } else {
                        Outcome::Rejected { error }
                    });
                }
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected frame type {other:?}"),
                    ))
                }
            }
        }
    }

    /// As [`Client::submit`], but honor the server's backoff hints: on an
    /// `overloaded` verdict sleep `retry_after_ms` and resubmit, up to
    /// `max_retries` times. The last overload verdict is returned when the
    /// budget runs out.
    pub fn submit_with_retry(
        &mut self,
        sub: Submission<'_>,
        opts: &SubmitOpts,
        max_retries: u32,
    ) -> io::Result<Outcome> {
        let mut last = self.submit(sub, opts)?;
        for _ in 0..max_retries {
            match &last {
                Outcome::Overloaded { retry_after_ms, .. } => {
                    std::thread::sleep(Duration::from_millis(*retry_after_ms));
                    last = self.submit(sub, opts)?;
                }
                _ => break,
            }
        }
        Ok(last)
    }

    fn read_json(&mut self) -> io::Result<String> {
        match read_frame(&mut self.conn)? {
            // The payload is the string; only invalid UTF-8 is copied.
            Some((_, payload)) => Ok(String::from_utf8(payload)
                .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
        }
    }
}
