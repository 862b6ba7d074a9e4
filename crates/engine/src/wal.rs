//! Durable WAL: crash recovery for the sharded engine.
//!
//! A moments-sketch cell is a fixed-size summary, so a cell's current
//! value costs as many log bytes as its increment. The log records
//! neither rows nor increments: each [`checkpoint`] runs the delta
//! refresh a snapshot runs and appends one *replacement record* — the
//! value of every cell refreshed since the previous record, plus the
//! row total — as one CRC-framed segment ([`msketch_cube::segment`]).
//! Recovery replays the valid segment prefix, replacing cells as it
//! goes, and ends at the last committed snapshot.
//!
//! ```text
//! segments.wal:  [frame epoch=1][frame epoch=2]...[frame epoch=k][torn tail?]
//!                 └──────────────── replayed ─────────────────┘ └ truncated ┘
//! ```
//!
//! A payload's first byte is [`WalWire::WalReplaceV1`] for a record (a
//! [`DynCube`] image follows), or the `QC` magic of a bare pane image
//! from logs written before records, which replay folds in with
//! `merge_cube`.
//!
//! Crash-consistency contract:
//!
//! * an interrupted append leaves a *torn tail* — recovery truncates it
//!   and reports the bytes dropped, it never fails the open;
//! * mid-log corruption (a bad CRC or magic before the tail) also ends
//!   the valid prefix, but is surfaced in
//!   [`RecoveryReport::tail`] so operators can distinguish "normal
//!   crash" from "disk ate my log";
//! * replay is panic-free on arbitrary bytes (property-tested in
//!   `tests/wal_recovery.rs`);
//! * a failed [`Wal::append`] degrades durability until the next
//!   successful checkpoint, which logs the failed record's cells again.
//!   The handle rewinds the file to the last known-good frame boundary
//!   before accepting another append (replay stops at the first
//!   damaged frame, so appending past the damage would be silently
//!   dropped by the next recovery); if the rewind itself fails, the
//!   handle is *poisoned* and every later append returns
//!   [`WalError::Poisoned`] instead of pretending to be durable.
//!
//! Fsync cadence is the throughput knob ([`FsyncPolicy`]); perfbench
//! prices the `Always` end of it (`engine.wal_append_us`,
//! `engine.checkpoint_ms`, and `ingest-durable` end to end).
//!
//! [`checkpoint`]: crate::DynShardedCube::checkpoint

use msketch_cube::segment::{frame_segment, unframe_segment, SegmentError};
use msketch_cube::DynCube;
use msketch_obs::{Counter, Gauge};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Segment payload tags, pinned append-only in `lint/wire_tags.golden`
/// in one namespace with the sketch and timeline tags.
#[repr(u8)]
pub(crate) enum WalWire {
    /// A replacement record: refreshed cells' values and the row total.
    WalReplaceV1 = 11,
}

/// A checkpoint's record as a segment payload: tag, then cube image.
pub(crate) fn encode_record(cube: &DynCube) -> Vec<u8> {
    let mut payload = vec![WalWire::WalReplaceV1 as u8];
    payload.extend_from_slice(&cube.to_bytes());
    payload
}

/// How often appends reach the disk platter, from safest to fastest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every append: a completed [`checkpoint`] is
    /// durable against power loss, not just process crash.
    ///
    /// [`checkpoint`]: crate::DynShardedCube::checkpoint
    Always,
    /// `fsync` once per N appends: bounds the power-loss exposure to
    /// the last N records while amortizing the sync cost.
    EveryN(u64),
    /// Never `fsync` explicitly: appends survive process crashes (the
    /// kernel holds the pages) but not power loss. The right choice
    /// when the WAL is a warm-restart convenience, not an audit log.
    Never,
}

/// Configuration for [`Wal::open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalConfig {
    /// Fsync cadence; defaults to [`FsyncPolicy::Always`].
    pub fsync: FsyncPolicy,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            fsync: FsyncPolicy::Always,
        }
    }
}

/// Why WAL I/O or replay failed.
///
/// `std::io::Error` is neither `Clone` nor `PartialEq`, so I/O failures
/// carry their rendered message — [`EngineError`](crate::EngineError)
/// derives both and WAL errors must nest inside it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// Filesystem operation failed (open, read, write, sync, truncate).
    Io(String),
    /// A log frame failed to parse; recovery ends the valid prefix at
    /// the reported offset.
    Segment(SegmentError),
    /// A frame's CRC checked out but its payload is not a decodable
    /// cube — corruption the checksum happened to miss, or a foreign
    /// file. Ends the valid prefix.
    Decode {
        /// Stream offset of the undecodable frame.
        offset: usize,
        /// The cube decoder's rendered error.
        detail: String,
    },
    /// A decoded segment does not apply to the segments before it
    /// (schema or backend mismatch — logs from different engines were
    /// mixed). Ends the valid prefix.
    Merge {
        /// Stream offset of the unmergeable frame.
        offset: usize,
        /// The cube merge's rendered error.
        detail: String,
    },
    /// The handle refuses to append: an earlier failure left damaged
    /// bytes past the last known-good frame boundary and they could
    /// not be rewound. Replay stops at the first damaged frame, so any
    /// segment appended now would be silently dropped by the next
    /// recovery — failing loudly here is what keeps that loss visible.
    /// Reopen the log ([`Wal::open`]) to truncate the damage and
    /// resume.
    Poisoned {
        /// The failure that poisoned the handle, rendered.
        detail: String,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o: {e}"),
            WalError::Segment(e) => write!(f, "wal frame: {e}"),
            WalError::Decode { offset, detail } => {
                write!(f, "wal segment at byte {offset} does not decode: {detail}")
            }
            WalError::Merge { offset, detail } => {
                write!(f, "wal segment at byte {offset} does not merge: {detail}")
            }
            WalError::Poisoned { detail } => {
                write!(
                    f,
                    "wal poisoned by an unrewindable append failure ({detail}); \
                     reopen the log to truncate the damage"
                )
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<SegmentError> for WalError {
    fn from(e: SegmentError) -> Self {
        WalError::Segment(e)
    }
}

fn io_err(context: &str, e: std::io::Error) -> WalError {
    WalError::Io(format!("{context}: {e}"))
}

/// What [`Wal::open`] found and did while replaying an existing log.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Valid segments replayed into the recovered base cube.
    pub segments_replayed: usize,
    /// Total rows in the recovered base cube.
    pub rows_recovered: u64,
    /// Bytes of valid segment prefix kept.
    pub valid_bytes: u64,
    /// Bytes truncated off the tail (torn or corrupt).
    pub truncated_bytes: u64,
    /// Epoch of the last replayed segment (0 when none).
    pub last_epoch: u64,
    /// Why replay stopped before the end of the file, when it did:
    /// `Some(Segment(Torn ..))` is the expected shape after a crash
    /// mid-append; anything else means mid-log corruption.
    pub tail: Option<WalError>,
}

/// An open, replayed segment log: the append handle the engine holds.
///
/// One file, `segments.wal`, inside the directory handed to
/// [`Wal::open`]; segments are framed by [`msketch_cube::segment`] and
/// appended strictly in epoch order by
/// [`DynShardedCube::checkpoint`](crate::DynShardedCube::checkpoint).
pub struct Wal {
    path: PathBuf,
    file: File,
    fsync: FsyncPolicy,
    appends_since_sync: u64,
    /// Segments, bytes and failed appends through this handle (replayed
    /// segments excluded). Obs handles, so an engine that attaches this
    /// log counts into its own ([`Wal::count_into`]) and its stats are
    /// read without waiting on an in-flight append or fsync.
    segments_appended: Gauge,
    bytes_appended: Gauge,
    append_errors: Counter,
    /// File length as of the last fully-written frame: the rewind
    /// target after a failed append, and the boundary replay would
    /// stop at if we crashed right now.
    committed_len: u64,
    /// Set when a failed append could not be rewound; every later
    /// append returns [`WalError::Poisoned`] until the log is
    /// reopened.
    poisoned: Option<String>,
    /// Observability hooks, attached via [`Wal::set_obs`].
    obs: Option<WalObs>,
}

/// Fsync latency recorder plus warn-event sink for append failures:
/// the `append_errors` counter says how many appends failed, events say
/// when and why, and the recorder gives `/metrics` the fsync latency
/// distribution (moment sketch, like every other recorder).
struct WalObs {
    fsync_seconds: msketch_obs::Recorder,
    events: msketch_obs::TraceSink,
}

impl Wal {
    /// File name of the segment log inside the WAL directory.
    pub const LOG_FILE: &'static str = "segments.wal";

    /// Open (creating if absent) the segment log under `dir`, replay
    /// its valid prefix into a base cube, and truncate any invalid
    /// tail.
    ///
    /// Returns the append handle, the recovered cube (`None` when the
    /// log held no segments), and a [`RecoveryReport`]. Corruption
    /// never fails the open — it shortens the valid prefix and is
    /// reported in [`RecoveryReport::tail`]. Only real I/O failures
    /// return `Err`.
    pub fn open(
        dir: &Path,
        config: WalConfig,
    ) -> Result<(Wal, Option<DynCube>, RecoveryReport), WalError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("create wal dir", e))?;
        let path = dir.join(Self::LOG_FILE);
        let (stream, created) = match std::fs::read(&path) {
            Ok(bytes) => (bytes, false),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => (Vec::new(), true),
            Err(e) => return Err(io_err("read wal", e)),
        };

        let (base, report) = replay(&stream);

        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err("open wal", e))?;
        if report.truncated_bytes > 0 {
            // Drop the torn/corrupt tail so the next append starts at a
            // frame boundary; without this, replay after the next crash
            // would stop at the old damage and lose the new segments.
            // Sync the shorter length before appending over it — an
            // unsynced truncation racing a crash could resurrect stale
            // tail bytes past a fresh frame.
            file.set_len(report.valid_bytes)
                .map_err(|e| io_err("truncate wal tail", e))?;
            file.sync_data()
                .map_err(|e| io_err("sync truncated wal", e))?;
        }
        if created {
            // A new file's *directory entry* is not durable until the
            // directory itself is synced; without this, power loss can
            // vanish the whole log even though every later sync_data
            // on the file succeeded.
            sync_dir(dir)?;
        }
        file.seek(SeekFrom::End(0))
            .map_err(|e| io_err("seek wal end", e))?;

        Ok((
            Wal {
                path,
                file,
                fsync: config.fsync,
                appends_since_sync: 0,
                segments_appended: Gauge::default(),
                bytes_appended: Gauge::default(),
                append_errors: Counter::default(),
                committed_len: report.valid_bytes,
                poisoned: None,
                obs: None,
            },
            base,
            report,
        ))
    }

    /// Append one segment payload under `epoch`,
    /// syncing per the configured [`FsyncPolicy`]. Returns the frame
    /// size written.
    ///
    /// A failed append never leaves the log in a state where a *later*
    /// append would be silently dropped by replay: the file is rewound
    /// to the last fully-written frame before the error returns, and
    /// if that rewind fails the handle poisons itself — every
    /// subsequent call answers [`WalError::Poisoned`] until the log is
    /// reopened.
    pub fn append(&mut self, epoch: u64, payload: &[u8]) -> Result<u64, WalError> {
        let mut span = msketch_obs::span("engine::wal_append");
        span.field("epoch", epoch);
        if let Some(detail) = &self.poisoned {
            self.append_errors.inc();
            self.warn_append_error("append refused: log poisoned");
            return Err(WalError::Poisoned {
                detail: detail.clone(),
            });
        }
        let frame = frame_segment(epoch, payload);
        // Fault injection: crash mid-append. Writing exactly half the
        // frame leaves the torn-tail shape a real crash leaves; the
        // error models the process dying before the write completed,
        // so the torn bytes stay on disk for recovery to truncate and
        // the handle poisons itself — a crashed process cannot keep
        // appending, and neither may we, or replay would silently drop
        // everything we append past the tear.
        if failpoint::fail_if("engine::wal_torn_append") {
            let half = &frame[..frame.len() / 2];
            self.file
                .write_all(half)
                .and_then(|()| self.file.sync_data())
                .map_err(|e| io_err("append wal (injected torn write)", e))?;
            self.append_errors.inc();
            self.poisoned = Some("injected torn append".to_string());
            self.warn_append_error("injected torn append");
            return Err(WalError::Io("injected torn append".to_string()));
        }
        // Fault injection: a *transient* partial write (ENOSPC halfway
        // through the frame, then the error returns to a live caller).
        // Unlike the torn-append crash model above, the handle survives
        // and must rewind so the next append lands on a frame boundary.
        let outcome = if failpoint::fail_if("engine::wal_partial_append") {
            self.file
                .write_all(&frame[..frame.len() / 2])
                .map_err(|e| io_err("append wal (injected partial write)", e))
                .and(Err(WalError::Io("injected partial append".to_string())))
        } else {
            self.write_frame(&frame)
        };
        if let Err(e) = outcome {
            self.append_errors.inc();
            // The frame may be partially on disk. Replay stops at the
            // first damaged frame, so anything appended after it would
            // be silently truncated by the next recovery. Rewind to
            // the last known-good boundary; if even that fails, refuse
            // all further appends rather than lose them silently.
            if let Err(rewind) = self.rewind_to_committed() {
                self.poisoned = Some(format!("{e}; rewind failed: {rewind}"));
            }
            self.warn_append_error(&e.to_string());
            return Err(e);
        }
        self.segments_appended.add(1);
        self.bytes_appended.add(frame.len() as u64);
        self.committed_len += frame.len() as u64;
        Ok(frame.len() as u64)
    }

    /// Truncate the file back to the last fully-written frame and
    /// reposition the cursor there, discarding any partial frame a
    /// failed append left behind.
    fn rewind_to_committed(&mut self) -> Result<(), WalError> {
        self.file
            .set_len(self.committed_len)
            .map_err(|e| io_err("rewind wal to last good frame", e))?;
        self.file
            .seek(SeekFrom::Start(self.committed_len))
            .map_err(|e| io_err("seek wal to last good frame", e))?;
        Ok(())
    }

    fn write_frame(&mut self, frame: &[u8]) -> Result<(), WalError> {
        self.file
            .write_all(frame)
            .map_err(|e| io_err("append wal", e))?;
        self.appends_since_sync += 1;
        let due = match self.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.appends_since_sync >= n.max(1),
            FsyncPolicy::Never => false,
        };
        if due {
            // Span + recorder cover the injected stall too, so a slow
            // fsync shows up in both the trace and the p99 series.
            let _span = msketch_obs::span("engine::wal_fsync");
            let started = std::time::Instant::now();
            // Fault injection: a slow fsync (arm with `sleep(..)`), the
            // stall the serving layer's staged-commit path must never
            // hold the engine lock across.
            failpoint::sleep_if("engine::wal_fsync");
            self.sync()?;
            if let Some(obs) = &self.obs {
                obs.fsync_seconds.observe(started.elapsed().as_secs_f64());
            }
        }
        Ok(())
    }

    /// Force buffered appends to disk regardless of policy.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.file.sync_data().map_err(|e| io_err("sync wal", e))?;
        self.appends_since_sync = 0;
        Ok(())
    }

    /// Path of the segment log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes appended through this handle (excludes replayed ones).
    pub fn bytes_appended(&self) -> u64 {
        self.bytes_appended.get()
    }

    /// Count appends into the attaching engine's handles from here on.
    /// Called before the first append, so nothing counted is dropped.
    pub(crate) fn count_into(&mut self, segments: &Gauge, bytes: &Gauge, errors: &Counter) {
        self.segments_appended = segments.clone();
        self.bytes_appended = bytes.clone();
        self.append_errors = errors.clone();
    }

    /// Whether an unrewindable append failure has poisoned the handle
    /// (every append now returns [`WalError::Poisoned`]).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// Attach observability: policy-driven fsyncs record their latency
    /// into `fsync_seconds`, and every append failure emits a
    /// warn-level event through `events` at the moment the
    /// `append_errors` counter increments.
    pub fn set_obs(
        &mut self,
        fsync_seconds: msketch_obs::Recorder,
        events: msketch_obs::TraceSink,
    ) {
        self.obs = Some(WalObs {
            fsync_seconds,
            events,
        });
    }

    fn warn_append_error(&self, detail: &str) {
        if let Some(obs) = &self.obs {
            obs.events.event(
                msketch_obs::Level::Warn,
                "engine::wal_append_error",
                &[
                    ("detail", detail.to_string()),
                    ("append_errors_total", self.append_errors.get().to_string()),
                ],
            );
        }
    }
}

/// Make a directory's entries durable. A file created or renamed
/// inside `dir` is only crash-safe once the directory itself has been
/// fsynced. Both durable stores — this log and the timeline's segment
/// store — sync their directories here.
#[cfg(unix)]
pub fn sync_dir(dir: &Path) -> Result<(), WalError> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err(&format!("sync dir {}", dir.display()), e))
}

/// Directories cannot be opened as files off unix; the stores degrade
/// to the platform's default metadata durability there.
#[cfg(not(unix))]
pub fn sync_dir(_dir: &Path) -> Result<(), WalError> {
    Ok(())
}

/// Replay a log byte stream into a base cube: start empty, then per
/// segment either replace the record's cells and take its row total,
/// or fold a pre-record pane in with `merge_cube`. Panic-free on
/// arbitrary input.
fn replay(stream: &[u8]) -> (Option<DynCube>, RecoveryReport) {
    let mut report = RecoveryReport::default();
    let mut base: Option<DynCube> = None;
    let mut offset = 0usize;
    loop {
        match unframe_segment(stream, offset) {
            Ok(None) => break,
            Err(e) => {
                report.tail = Some(WalError::Segment(e));
                break;
            }
            Ok(Some(seg)) => {
                let (record, image) = match seg.payload.split_first() {
                    Some((&tag, image)) if tag == WalWire::WalReplaceV1 as u8 => (true, image),
                    _ => (false, seg.payload),
                };
                let cube = match DynCube::from_bytes(image) {
                    Ok(cube) => cube,
                    Err(e) => {
                        report.tail = Some(WalError::Decode {
                            offset,
                            detail: e.to_string(),
                        });
                        break;
                    }
                };
                let dst = base.get_or_insert_with(|| {
                    let names: Vec<&str> = cube.dim_names().iter().map(String::as_str).collect();
                    DynCube::from_spec(cube.spec().clone(), &names)
                });
                // A segment that does not apply means mixed logs; the
                // prefix before this frame is still usable.
                let applied = if record {
                    dst.replace_cells(&cube)
                } else {
                    dst.merge_cube(&cube)
                };
                if let Err(e) = applied {
                    report.tail = Some(WalError::Merge {
                        offset,
                        detail: e.to_string(),
                    });
                    break;
                }
                report.segments_replayed += 1;
                report.last_epoch = report.last_epoch.max(seg.epoch);
                offset += seg.frame_len;
            }
        }
    }
    report.valid_bytes = offset as u64;
    report.truncated_bytes = (stream.len() - offset) as u64;
    report.rows_recovered = base.as_ref().map_or(0, |b| b.row_count());
    if report.segments_replayed == 0 {
        base = None;
    }
    (base, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use msketch_cube::hash::FxHashMap;
    use msketch_sketches::SketchSpec;

    fn pane(rows: std::ops::Range<u64>) -> DynCube {
        let mut cube = DynCube::from_spec(SketchSpec::moments(8), &["region"]);
        for i in rows {
            cube.insert(&[["eu", "us"][(i % 2) as usize]], i as f64)
                .unwrap();
        }
        cube
    }

    #[test]
    fn fresh_dir_opens_empty() {
        let dir = std::env::temp_dir().join("msketch-wal-test-fresh");
        let _ = std::fs::remove_dir_all(&dir);
        let (wal, base, report) = Wal::open(&dir, WalConfig::default()).unwrap();
        assert!(base.is_none());
        assert_eq!(report, RecoveryReport::default());
        assert!(wal.path().ends_with(Wal::LOG_FILE));
        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_reopen_replays_merged_panes() {
        let _failpoints = failpoint::scope();
        let dir = std::env::temp_dir().join("msketch-wal-test-replay");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (mut wal, _, _) = Wal::open(&dir, WalConfig::default()).unwrap();
            wal.append(1, &pane(0..100).to_bytes()).unwrap();
            wal.append(2, &pane(100..250).to_bytes()).unwrap();
            assert_eq!(wal.segments_appended.get(), 2);
        }
        let (_, base, report) = Wal::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(report.segments_replayed, 2);
        assert_eq!(report.last_epoch, 2);
        assert_eq!(report.rows_recovered, 250);
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(report.tail, None);
        let base = base.unwrap();
        assert_eq!(base.row_count(), 250);
        // Bit-exact with merging the panes directly.
        let mut direct = pane(0..100);
        direct.merge_cube(&pane(100..250)).unwrap();
        let a = base.rollup(&base.no_filter()).unwrap().quantile(0.5);
        let b = direct.rollup(&direct.no_filter()).unwrap().quantile(0.5);
        assert_eq!(a.to_bits(), b.to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_replace_cells_on_top_of_pane_logs() {
        // A log begun with a pane and continued with a record: replay
        // folds the pane, then replaces the one cell the record
        // carries and takes the record's row total.
        let _failpoints = failpoint::scope();
        let dir = std::env::temp_dir().join("msketch-wal-test-record");
        let _ = std::fs::remove_dir_all(&dir);
        let mut current = pane(0..100);
        {
            let (mut wal, _, _) = Wal::open(&dir, WalConfig::default()).unwrap();
            wal.append(1, &current.to_bytes()).unwrap();
            for i in 100..160 {
                current.insert(&["eu"], i as f64).unwrap();
            }
            let eu = current.dictionary(0).unwrap().lookup("eu").unwrap();
            let keys = [vec![eu]].into_iter().collect();
            let mut record = DynCube::from_spec(SketchSpec::moments(8), &["region"]);
            record
                .apply_delta(&current.build_delta(&keys), &FxHashMap::default())
                .unwrap();
            record.set_row_count(current.row_count());
            assert_eq!(record.cell_count(), 1);
            wal.append(2, &encode_record(&record)).unwrap();
        }
        let (_, base, report) = Wal::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(report.segments_replayed, 2);
        assert_eq!(report.rows_recovered, 160);
        assert_eq!(report.tail, None);
        let base = base.unwrap();
        let cells = |cube: &DynCube| -> Vec<(String, Vec<u8>)> {
            let dict = cube.dictionary(0).unwrap();
            let mut cells: Vec<_> = cube
                .cells()
                .map(|(k, s)| (dict.decode(k[0]).unwrap().to_string(), s.to_bytes()))
                .collect();
            cells.sort();
            cells
        };
        assert_eq!(cells(&base), cells(&current));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let _failpoints = failpoint::scope();
        let dir = std::env::temp_dir().join("msketch-wal-test-torn");
        let _ = std::fs::remove_dir_all(&dir);
        let full_len;
        {
            let (mut wal, _, _) = Wal::open(&dir, WalConfig::default()).unwrap();
            wal.append(1, &pane(0..50).to_bytes()).unwrap();
            full_len = wal.bytes_appended();
            // Simulate a crash mid-second-append: write half a frame.
            failpoint::cfg("engine::wal_torn_append", "1*return").unwrap();
            let err = wal.append(2, &pane(50..80).to_bytes()).unwrap_err();
            assert!(matches!(err, WalError::Io(_)));
            assert_eq!(wal.append_errors.get(), 1);
            // The tear models a crash, so the handle is poisoned: an
            // append past the torn bytes would be silently dropped by
            // the next replay, and the handle refuses to let that
            // loss be silent.
            assert!(wal.is_poisoned());
            assert!(matches!(
                wal.append(3, &pane(80..90).to_bytes()),
                Err(WalError::Poisoned { .. })
            ));
            assert_eq!(wal.append_errors.get(), 2);
        }
        let (mut wal, base, report) = Wal::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(report.segments_replayed, 1);
        assert_eq!(report.rows_recovered, 50);
        assert_eq!(report.valid_bytes, full_len);
        assert!(report.truncated_bytes > 0);
        assert!(matches!(
            report.tail,
            Some(WalError::Segment(SegmentError::Torn { .. }))
        ));
        assert_eq!(base.unwrap().row_count(), 50);
        // The tail was truncated: appending now works and a third open
        // sees both segments.
        wal.append(2, &pane(50..80).to_bytes()).unwrap();
        drop(wal);
        let (_, base, report) = Wal::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(report.segments_replayed, 2);
        assert_eq!(base.unwrap().row_count(), 80);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_append_rewinds_so_later_segments_survive_replay() {
        let _failpoints = failpoint::scope();
        let dir = std::env::temp_dir().join("msketch-wal-test-rewind");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (mut wal, _, _) = Wal::open(&dir, WalConfig::default()).unwrap();
            wal.append(1, &pane(0..50).to_bytes()).unwrap();
            // A transient partial write (ENOSPC mid-frame, caller
            // survives): the error surfaces and the file rewinds to
            // the last good frame boundary...
            failpoint::cfg("engine::wal_partial_append", "1*return").unwrap();
            let err = wal.append(2, &pane(50..80).to_bytes()).unwrap_err();
            assert!(matches!(err, WalError::Io(_)));
            assert_eq!(wal.append_errors.get(), 1);
            assert!(!wal.is_poisoned());
            // ...so the retry and every later append stay replayable
            // instead of being silently truncated behind the damage.
            wal.append(2, &pane(50..80).to_bytes()).unwrap();
            wal.append(3, &pane(80..100).to_bytes()).unwrap();
            assert_eq!(wal.segments_appended.get(), 3);
        }
        let (_, base, report) = Wal::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(report.segments_replayed, 3);
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(report.tail, None);
        assert_eq!(base.unwrap().row_count(), 100);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_log_corruption_ends_the_prefix_and_reports() {
        let _failpoints = failpoint::scope();
        let dir = std::env::temp_dir().join("msketch-wal-test-corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        let first_len;
        {
            let (mut wal, _, _) = Wal::open(&dir, WalConfig::default()).unwrap();
            first_len = wal.append(1, &pane(0..40).to_bytes()).unwrap();
            wal.append(2, &pane(40..90).to_bytes()).unwrap();
        }
        // Flip a byte inside the second frame's payload.
        let path = dir.join(Wal::LOG_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let victim = first_len as usize + 30;
        bytes[victim] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let (_, base, report) = Wal::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(report.segments_replayed, 1);
        assert_eq!(
            report.tail,
            Some(WalError::Segment(SegmentError::BadCrc {
                offset: first_len as usize
            }))
        );
        assert_eq!(base.unwrap().row_count(), 40);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), first_len);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_cadence_policies_all_land_appends() {
        let _failpoints = failpoint::scope();
        for fsync in [
            FsyncPolicy::Always,
            FsyncPolicy::EveryN(4),
            FsyncPolicy::Never,
        ] {
            let dir = std::env::temp_dir().join(format!("msketch-wal-test-sync-{fsync:?}"));
            let _ = std::fs::remove_dir_all(&dir);
            {
                let (mut wal, _, _) = Wal::open(&dir, WalConfig { fsync }).unwrap();
                for epoch in 1..=6u64 {
                    let lo = (epoch - 1) * 10;
                    wal.append(epoch, &pane(lo..lo + 10).to_bytes()).unwrap();
                }
            }
            let (_, base, report) = Wal::open(&dir, WalConfig::default()).unwrap();
            assert_eq!(report.segments_replayed, 6, "{fsync:?}");
            assert_eq!(base.unwrap().row_count(), 60, "{fsync:?}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn foreign_file_replays_as_empty_with_bad_magic_tail() {
        let dir = std::env::temp_dir().join("msketch-wal-test-foreign");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(Wal::LOG_FILE), b"this is not a segment log at all").unwrap();
        let (_, base, report) = Wal::open(&dir, WalConfig::default()).unwrap();
        assert!(base.is_none());
        assert_eq!(report.segments_replayed, 0);
        assert!(matches!(
            report.tail,
            Some(WalError::Segment(SegmentError::BadMagic { offset: 0 }))
        ));
        assert!(report.truncated_bytes > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
