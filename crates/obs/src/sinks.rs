//! The per-run output sinks.
//!
//! A [`Sinks`] value travels with a run's configuration and names every
//! output the run feeds: the JSONL trace, the `TS_<run>.json` export,
//! the flight recorder and the live tap. Every field defaults to off,
//! and an all-off value leaves a run byte-identical to one without the
//! observability plane. Nothing here is process-global, so concurrent
//! runs on separate sinks never see each other's output.
//!
//! The trace and the time-series export share one [`Collector`] type: a
//! list of labelled chunks plus the destination they are written to.
//! Clones share the list, so every run of a sweep feeds one file (or one
//! directory) and the flush orders the chunks by label, never by
//! completion order.

use crate::flight::FlightConfig;
use crate::live::LiveConfig;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The outputs one run feeds. All off by default.
#[derive(Debug, Clone, Default)]
pub struct Sinks {
    /// The JSONL event log (`--trace PATH`).
    pub trace: Option<Collector>,
    /// The downsampled time-series export (`--ts DIR`).
    pub ts: Option<Collector>,
    /// The flight recorder (`--flight N`, `--flight-dump`,
    /// `--tick-deadline-ms N`).
    pub flight: Option<FlightConfig>,
    /// The live telemetry tap (`--live PATH`, `--live-every N`).
    pub live: Option<LiveConfig>,
}

/// Which file layout a collector writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// One JSONL file: chunks sorted by `(label, content)`, every line
    /// prefixed with the `seq`/`scope` envelope.
    Trace,
    /// One `TS_<label>.json` per chunk in a directory, ordered by
    /// `(label, semantic section)`, duplicates suffixed `-2`, `-3`, ….
    TimeSeries,
}

/// A shared, label-keyed chunk list and the destination it flushes to.
/// Labels must be deterministic for the work performed (derive them
/// from the run's configuration, never from wall-clock, thread ids or
/// completion order).
#[derive(Debug, Clone)]
pub struct Collector {
    layout: Layout,
    dest: PathBuf,
    /// `(label, chunk)` per submitted run.
    chunks: Arc<Mutex<Vec<(String, String)>>>,
}

impl Collector {
    /// A collector for the JSONL trace written to `path`.
    #[must_use]
    pub fn trace(path: impl Into<PathBuf>) -> Self {
        Self::new(Layout::Trace, path.into())
    }

    /// A collector for `TS_<run>.json` documents written into `dir`.
    #[must_use]
    pub fn time_series(dir: impl Into<PathBuf>) -> Self {
        Self::new(Layout::TimeSeries, dir.into())
    }

    fn new(layout: Layout, dest: PathBuf) -> Self {
        Self {
            layout,
            dest,
            chunks: Arc::default(),
        }
    }

    /// The trace file or time-series directory.
    #[must_use]
    pub fn dest(&self) -> &Path {
        &self.dest
    }

    fn lock(&self) -> MutexGuard<'_, Vec<(String, String)>> {
        self.chunks.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Adds one run's output under `label`.
    pub fn submit(&self, label: &str, chunk: String) {
        self.lock().push((label.to_string(), chunk));
    }

    /// The files [`flush`](Self::flush) would write, as `(path, body)`
    /// in write order. A trace always renders its one file, empty or
    /// not; a time-series collector renders one file per document.
    #[must_use]
    pub fn render(&self) -> Vec<(PathBuf, String)> {
        let mut chunks = self.lock();
        match self.layout {
            Layout::Trace => {
                let mut body = Vec::new();
                crate::event::write_trace(&mut chunks, &mut body)
                    .expect("writing to a Vec cannot fail");
                let body = String::from_utf8(body).expect("the trace lines are UTF-8");
                vec![(self.dest.clone(), body)]
            }
            Layout::TimeSeries => crate::timeseries::ts_files(&self.dest, &mut chunks),
        }
    }

    /// Writes the rendered files, creating missing parent directories,
    /// and clears the chunk list (the destination stays). Returns the
    /// paths written. The trace is streamed through a buffered writer
    /// rather than rendered first, so flushing it needs no second copy
    /// of the file in memory; the bytes equal [`render`](Self::render)'s.
    ///
    /// # Errors
    /// Propagates the first write error, leaving the chunks intact.
    pub fn flush(&self) -> std::io::Result<Vec<PathBuf>> {
        let mut chunks = self.lock();
        let written = match self.layout {
            Layout::Trace => {
                create_parent(&self.dest)?;
                let mut out = BufWriter::with_capacity(1 << 20, File::create(&self.dest)?);
                crate::event::write_trace(&mut chunks, &mut out)?;
                out.flush()?;
                vec![self.dest.clone()]
            }
            Layout::TimeSeries => {
                let mut written = Vec::new();
                for (path, body) in crate::timeseries::ts_files(&self.dest, &mut chunks) {
                    create_parent(&path)?;
                    std::fs::write(&path, body)?;
                    written.push(path);
                }
                written
            }
        };
        chunks.clear();
        Ok(written)
    }
}

/// Creates the missing parent directories of `path`.
fn create_parent(path: &Path) -> std::io::Result<()> {
    match path.parent().filter(|p| !p.as_os_str().is_empty()) {
        Some(parent) => std::fs::create_dir_all(parent),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_one_chunk_list() {
        let a = Collector::trace("unused.jsonl");
        let b = a.clone();
        let other = Collector::trace("unused.jsonl");
        a.submit(
            "x",
            "{\"kind\":\"heal\",\"tick\":1,\"components\":1}\n".to_string(),
        );
        assert_eq!(b.render(), a.render());
        assert!(b.render()[0].1.contains("\"scope\":\"x\""));
        assert_eq!(other.render()[0].1, "", "a separate collector sees nothing");
    }

    #[test]
    fn trace_flush_streams_the_rendered_bytes() {
        let dir = std::env::temp_dir().join(format!("mmog-trace-test-{}", std::process::id()));
        let path = dir.join("nested").join("trace.jsonl");
        let sink = Collector::trace(&path);
        sink.submit(
            "b",
            "{\"kind\":\"heal\",\"tick\":2,\"components\":1}\n".into(),
        );
        sink.submit(
            "a",
            "{\"kind\":\"heal\",\"tick\":1,\"components\":1}\n\
             {\"kind\":\"heal\",\"tick\":3,\"components\":2}\n"
                .into(),
        );
        let rendered = sink.render();
        assert_eq!(sink.flush().unwrap(), vec![path.clone()]);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), rendered[0].1);
        assert!(rendered[0].1.starts_with("{\"seq\":0,\"scope\":\"a\","));
        // Flushing cleared the chunks; the trace file is still rewritten.
        assert_eq!(sink.flush().unwrap(), vec![path.clone()]);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
