//! The one metrics sink `srm-node` and `srm-hub` run (`--stats-file`): a
//! thread that appends one [`MetricsSnapshot`](obs::MetricsSnapshot) JSONL
//! line of a registry per interval, each flushed as it is written, so
//! killing the process loses at most the last interval.
//! [`StatsSink::finish`] writes a final snapshot after the host has shut
//! down, which then holds every count of the run.

use std::fs::File;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// How often a sleeping sink checks whether it should stop, so the final
/// snapshot follows shutdown promptly.
const STOP_POLL: Duration = Duration::from_millis(20);

/// A running stats sink; [`StatsSink::finish`] stops it.
pub struct StatsSink {
    stop: Arc<AtomicBool>,
    thread: thread::JoinHandle<()>,
}

impl StatsSink {
    /// Create (or truncate) `path` and start appending a snapshot of
    /// `registry` every `interval`, the first one now. The file is opened
    /// before the thread starts, so an unwritable path is this call's
    /// error, not a sink that silently writes nothing.
    pub fn start(
        path: &Path,
        registry: obs::MetricsRegistry,
        interval: Duration,
    ) -> io::Result<StatsSink> {
        let mut file = File::create(path)?;
        let mut emit = move || {
            let _ = writeln!(file, "{}", registry.snapshot().to_json_line())
                .and_then(|()| file.flush());
        };
        emit();
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let thread = thread::Builder::new()
            .name("srm-stats".into())
            .spawn(move || loop {
                let until = Instant::now() + interval;
                while Instant::now() < until && !stopped.load(Ordering::Relaxed) {
                    thread::sleep(STOP_POLL);
                }
                let stopping = stopped.load(Ordering::Relaxed);
                emit();
                if stopping {
                    // That snapshot was the final, post-shutdown one.
                    return;
                }
            })?;
        Ok(StatsSink { stop, thread })
    }

    /// Write the final snapshot and stop. Call after the host has shut
    /// down, so the snapshot holds every count of the run.
    pub fn finish(self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.thread.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("srm-sink-{}-{name}", std::process::id()))
    }

    #[test]
    fn an_unwritable_path_fails_at_construction() {
        // A path under a regular file cannot be created.
        let file = scratch("not-a-dir");
        std::fs::write(&file, b"").unwrap();
        let err = StatsSink::start(
            &file.join("stats.jsonl"),
            obs::MetricsRegistry::new(),
            Duration::from_secs(1),
        );
        assert!(err.is_err());
        std::fs::remove_file(&file).unwrap();
    }

    #[test]
    fn the_last_line_is_the_snapshot_taken_at_finish() {
        let path = scratch("lines.jsonl");
        let reg = obs::MetricsRegistry::new();
        let sink = StatsSink::start(&path, reg.clone(), Duration::from_secs(60)).unwrap();
        reg.counter("frames_sent").add(7);
        sink.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // The first snapshot at start, the final one at finish; the
        // interval never elapsed in between.
        assert_eq!(lines.len(), 2, "{text}");
        let last = obs::json::Json::parse(lines[1]).unwrap();
        let sent = last
            .get("counters")
            .and_then(|c| c.get("frames_sent"))
            .and_then(|v| v.as_u64());
        assert_eq!(sent, Some(7));
    }
}
