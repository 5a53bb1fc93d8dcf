//! Structured event log: leveled, rate-limited JSON lines.
//!
//! The server and TCP front end used to be silent — nothing recorded an
//! admission, a rejection, a timeout, or a connection error anywhere.
//! This module gives them a bounded in-memory log of JSON-lines events,
//! queryable over the wire via `{"cmd":"events"}` and optionally teed to
//! stderr for operators running `serve_run` in a terminal.
//!
//! Three rules keep it safe to call from the request path:
//!
//! * **Off is free.** A disabled log is `None` inside; `event` returns
//!   before touching the field closure, so call sites pay one branch.
//! * **Rate-limited per event kind.** At most `per_sec` lines of one
//!   kind are rendered per second; excess lines increment a suppression
//!   counter that is reported in a synthetic `suppressed` line when the
//!   window rolls over, so a reject storm cannot melt the log.
//! * **Bounded memory.** Lines live in an [`obs::recorder::Ring`] that
//!   keeps the newest `capacity`; evictions (`dropped`) are surfaced
//!   through `{"cmd":"health"}`.

use obs::json;
use obs::recorder::Ring;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};

/// Event severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Normal operation worth a line (admission, execution, shutdown).
    Info,
    /// Degraded but handled (reject, timeout, parse error).
    Warn,
    /// Something broke (run panic, dump write failure).
    Error,
}

impl Level {
    /// Lowercase name as rendered into the JSON line.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

/// Field builder handed to the `event` closure; renders straight into
/// the line buffer.
pub struct Fields {
    buf: String,
}

impl Fields {
    /// Append a string field (JSON-escaped).
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.buf
            .push_str(&format!(",{}:{}", json::escape(key), json::escape(value)));
        self
    }

    /// Append an unsigned integer field.
    pub fn num(&mut self, key: &str, value: u64) -> &mut Self {
        self.buf
            .push_str(&format!(",{}:{value}", json::escape(key)));
        self
    }

    /// Append a float field (3 decimals).
    pub fn float(&mut self, key: &str, value: f64) -> &mut Self {
        self.buf
            .push_str(&format!(",{}:{value:.3}", json::escape(key)));
        self
    }
}

struct RateState {
    window_s: u64,
    emitted: u32,
    suppressed: u64,
}

struct LogInner {
    ring: Ring<String>,
    rate: Mutex<HashMap<&'static str, RateState>>,
    per_sec: u32,
    stderr: bool,
}

/// A bounded, rate-limited JSON-lines event log. Cloning shares the
/// ring.
#[derive(Clone)]
pub struct Log {
    inner: Option<Arc<LogInner>>,
}

fn wall_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

impl Log {
    /// A disabled log: every call is a cheap no-op.
    pub const fn off() -> Self {
        Log { inner: None }
    }

    /// An enabled log keeping the newest `capacity` lines, rendering at
    /// most `per_sec` lines per event kind per second. `capacity == 0`
    /// yields a disabled log.
    pub fn on(capacity: usize, per_sec: u32, stderr: bool) -> Self {
        if capacity == 0 {
            return Log::off();
        }
        Log {
            inner: Some(Arc::new(LogInner {
                ring: Ring::with_capacity(capacity),
                rate: Mutex::new(HashMap::new()),
                per_sec: per_sec.max(1),
                stderr,
            })),
        }
    }

    /// Whether events are recorded at all.
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Lines evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| {
            i.ring.pushed().saturating_sub(i.ring.capacity() as u64)
        })
    }

    /// Record one event. The closure fills in event-specific fields and
    /// runs only when the log is enabled and the kind is under its rate
    /// limit this second.
    pub fn event(&self, level: Level, kind: &'static str, fill: impl FnOnce(&mut Fields)) {
        let Some(inner) = &self.inner else { return };
        let now_ms = wall_ms();
        let now_s = now_ms / 1000;
        // Rate gate first, so a storm costs a map lookup, not a render.
        let rollover_suppressed = {
            let mut rate = inner.rate.lock().unwrap();
            let st = rate.entry(kind).or_insert(RateState {
                window_s: now_s,
                emitted: 0,
                suppressed: 0,
            });
            let mut rolled = None;
            if st.window_s != now_s {
                if st.suppressed > 0 {
                    rolled = Some(st.suppressed);
                }
                st.window_s = now_s;
                st.emitted = 0;
                st.suppressed = 0;
            }
            if st.emitted >= inner.per_sec {
                st.suppressed += 1;
                return;
            }
            st.emitted += 1;
            rolled
        };
        if let Some(n) = rollover_suppressed {
            self.push_line(
                inner,
                format!(
                    "{{\"ts_ms\":{now_ms},\"level\":\"warn\",\"event\":\"suppressed\",\"kind\":{},\"count\":{n}}}",
                    json::escape(kind)
                ),
            );
        }
        let mut fields = Fields {
            buf: String::with_capacity(96),
        };
        fill(&mut fields);
        let line = format!(
            "{{\"ts_ms\":{now_ms},\"level\":\"{}\",\"event\":{}{}}}",
            level.as_str(),
            json::escape(kind),
            fields.buf
        );
        self.push_line(inner, line);
    }

    fn push_line(&self, inner: &LogInner, line: String) {
        if inner.stderr {
            eprintln!("{line}");
        }
        inner.ring.push(line);
    }

    /// The retained lines, oldest to newest.
    pub fn lines(&self) -> Vec<String> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.ring.snapshot())
    }

    /// The retained lines as one JSON array (each line is already a
    /// JSON object, so they embed raw).
    pub fn render_json_array(&self) -> String {
        format!("[{}]", self.lines().join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::json::Value;

    #[test]
    fn off_log_records_and_costs_nothing() {
        let log = Log::off();
        log.event(Level::Info, "x", |f| {
            f.str("never", "called");
            panic!("closure must not run when off");
        });
        assert!(log.lines().is_empty());
        assert_eq!(log.render_json_array(), "[]");
        assert!(!Log::on(0, 10, false).is_on());
    }

    #[test]
    fn events_render_as_json_lines() {
        let log = Log::on(8, 100, false);
        log.event(Level::Warn, "reject", |f| {
            f.str("tenant", "al\"ice").num("queued", 64);
        });
        let lines = log.lines();
        assert_eq!(lines.len(), 1);
        let v = Value::parse(&lines[0]).expect("line parses");
        assert_eq!(v["level"].as_str(), Some("warn"));
        assert_eq!(v["event"].as_str(), Some("reject"));
        assert_eq!(v["tenant"].as_str(), Some("al\"ice"));
        assert_eq!(v["queued"], Value::Number(64.0));
        let arr = Value::parse(&log.render_json_array()).expect("array parses");
        assert_eq!(arr.as_array().unwrap().len(), 1);
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let log = Log::on(3, 1000, false);
        for i in 0..5u64 {
            log.event(Level::Info, "tick", |f| {
                f.num("i", i);
            });
        }
        let lines = log.lines();
        assert_eq!(lines.len(), 3);
        assert_eq!(log.dropped(), 2);
        assert!(lines[2].contains("\"i\":4"));
    }

    #[test]
    fn rate_limit_suppresses_within_a_second() {
        let log = Log::on(64, 2, false);
        for _ in 0..10 {
            log.event(Level::Info, "spam", |f| {
                f.num("x", 1);
            });
        }
        // At most 2 rendered this second (a window rollover mid-test
        // could admit 2 more, but never all 10).
        assert!(log.lines().len() <= 4, "{:?}", log.lines());
    }
}
