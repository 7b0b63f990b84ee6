//! In-memory spans around the calls into each layer.
//!
//! One [`Spans`] per thread of the traced pass; nothing is written until the
//! run ends. All recorders of one run share an origin so their spans land on
//! one time axis.

use polyprof_bench::JsonObj;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Shared by all spans of one profile or session.
    pub iteration: u64,
    /// Counts taken at this boundary.
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder for one thread.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(origin: Instant, thread: u32) -> Self {
        Spans {
            origin,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Time `f` as a child of the innermost open span and return its result
    /// with the span's duration in nanoseconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        iteration: u64,
        f: impl FnOnce(&mut Spans) -> T,
    ) -> (T, u64) {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            iteration,
            counts: Vec::new(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[idx].end_ns = end_ns;
        (out, end_ns - start_ns)
    }

    /// Attach a count to the innermost open span.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if let Some(&idx) = self.open.last() {
            self.spans[idx].counts.push((name, value));
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it that its
    /// children cover (overlapping children count once, and a child is
    /// clipped to its parent).
    pub fn self_times(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for c in &self.spans {
            if let Some(p) = c.parent {
                let s = &self.spans[p];
                let (a, b) = (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns));
                if b > a {
                    kids[p].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(kids)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for (a, b) in kids {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.duration_ns() - covered
            })
            .collect()
    }

    /// Total self time and span count per span name, heaviest first.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64, usize)> {
        let mut by_name: Vec<(&'static str, u64, usize)> = Vec::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(row) => {
                    row.1 += own;
                    row.2 += 1;
                }
                None => by_name.push((s.name, own, 1)),
            }
        }
        by_name.sort_by_key(|r| std::cmp::Reverse(r.1));
        by_name
    }

    /// Chrome trace-event objects (`ph: "X"`, microseconds), comma-joined
    /// without the enclosing brackets so several recorders concatenate.
    pub fn chrome_events(&self, pid: u32) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .zip(self.self_times())
            .map(|(s, own)| {
                let mut o = JsonObj::new();
                o.str_field("name", s.name)
                    .str_field("ph", "X")
                    .int_field("pid", u64::from(pid))
                    .int_field("tid", u64::from(self.thread))
                    .num_field("ts", s.start_ns as f64 / 1e3)
                    .num_field("dur", s.duration_ns() as f64 / 1e3)
                    .obj_field("args", |a| {
                        a.int_field("iteration", s.iteration)
                            .num_field("self_us", own as f64 / 1e3);
                        if let Some(p) = s.parent {
                            a.str_field("parent", self.spans[p].name);
                        }
                        for (k, v) in &s.counts {
                            a.num_field(k, *v);
                        }
                    });
                o.render()
            })
            .collect();
        events.join(",\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            iteration: 0,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let mut s = Spans::new(Instant::now(), 0);
        s.spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            // Overlaps the previous child: the union 10..50 counts once.
            span(20, 50, Some(0)),
            span(60, 70, Some(0)),
            // A grandchild shortens its parent, not the root.
            span(62, 68, Some(3)),
            // A child that outlives its parent is clipped to it.
            span(90, 140, Some(0)),
        ];
        let own = s.self_times();
        assert_eq!(own[0], 100 - (40 + 10 + 10));
        assert_eq!(own[3], 10 - 6);
        assert_eq!(own[4], 6);
    }

    #[test]
    fn nesting_records_parents_and_counts() {
        let mut s = Spans::new(Instant::now(), 3);
        let ((), outer) = s.time("outer", 7, |s| {
            s.count("events", 12.0);
            s.time("inner", 7, |_| ());
        });
        let sp = s.spans();
        assert_eq!((sp[0].name, sp[0].parent), ("outer", None));
        assert_eq!((sp[1].name, sp[1].parent), ("inner", Some(0)));
        assert_eq!(sp[0].counts, vec![("events", 12.0)]);
        assert_eq!(sp[0].duration_ns(), outer);
        assert!(sp[1].start_ns >= sp[0].start_ns && sp[1].end_ns <= sp[0].end_ns);
        let json = format!("[{}]", s.chrome_events(1));
        polyprof_bench::sentinel::validate_json(&json).expect("trace events are JSON");
        assert!(json.contains("\"parent\": \"outer\""));
    }
}
