//! The benchmark's span recorder. Spans are recorded from outside the
//! program, around calls into each layer's public functions; they stay in
//! memory and are written as Chrome-trace JSON when the run ends.

use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// The op this span belongs to (spans of one op share it).
    pub op: u32,
    /// That op's class in its workload's mix.
    pub class: u8,
}

pub struct Recorder {
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
    class: u8,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            class: 0,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
            class: self.class,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id` (the innermost open one) and returns its duration.
    pub fn exit(&mut self, id: u32) -> u64 {
        let end = self.now();
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        let s = &mut self.spans[id as usize];
        s.end_ns = end;
        end - s.start_ns
    }

    /// Records `f` as one span.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Opens the root span of the next op.
    pub fn begin_op(&mut self, name: &'static str, class: u8) -> u32 {
        self.op += 1;
        self.class = class;
        self.enter(name)
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Durations in microseconds of the spans called `name` in ops of `class`.
    pub fn class_durations_us(&self, name: &str, class: u8) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.class == class)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Total microseconds inside spans called `name`.
    pub fn total_us(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum()
    }

    /// Writes the spans of the first `max_ops` ops as Chrome-trace JSON
    /// (load it in `chrome://tracing` or Perfetto; `args.op` groups an op).
    pub fn write_chrome(&self, path: &std::path::Path, max_ops: u32) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        w.write_all(b"{\"traceEvents\":[")?;
        let mut first = true;
        for (id, s) in self.spans.iter().enumerate() {
            if s.op > max_ops {
                break;
            }
            let sep = if first { "" } else { "," };
            first = false;
            write!(
                w,
                "{sep}\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\
                 \"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{},\"op\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                if s.parent == NO_PARENT {
                    -1
                } else {
                    i64::from(s.parent)
                },
                s.op
            )?;
        }
        w.write_all(b"\n]}\n")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_their_op() {
        let mut r = Recorder::new();
        let op = r.begin_op("op", 3);
        r.leaf("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let total = r.exit(op) as f64 / 1e3;
        assert!(r.total_us("child") >= 2e3 && r.total_us("child") <= total);
        assert_eq!(r.total_us("op"), total);
        assert_eq!((r.spans[1].parent, r.spans[1].op), (0, r.spans[0].op));
        assert_eq!(r.class_durations_us("child", 3).len(), 1);
        assert!(r.class_durations_us("child", 0).is_empty());
    }
}
