//! Durability: snapshot + journal under one state directory, with every
//! write-path operation routed through a named fault-injection site.
//!
//! Layout (all substrate JSON, one value per file/line):
//!
//! * `snapshot.json` — `{"schema":"fcm-serve-snapshot/v1","seq":N,
//!   "state":{...},"written_unix_ms":T}` where `state` is
//!   [`crate::LiveModel::state_text`] output (`fcm-serve-state/v2`):
//!   the primary data only, the edges but not the Eq. 4 matrix they
//!   determine, which a load rebuilds. That text is streamed field by
//!   field through the substrate's one number and one string writer
//!   (`fcm_substrate::json::{write_num, write_escaped}`), the contracts
//!   included, so no `Json` value is built for any part of the state.
//!   The daemon's writer takes a [`StateCut`] (the edges copied, the
//!   contracts and FCM records rendered, no matrix) and hands it to the
//!   persistence thread, which streams the document into the file
//!   ([`Snapshotter::write_cut`]): the envelope and the edges go through
//!   one buffer and the rendered sections are written as they are, so
//!   the document is never held whole (DESIGN.md §9 gives the measured
//!   cost). Written
//!   to a temp file in the same directory, fsynced, atomically renamed, and the parent
//!   directory fsynced, so a crash never leaves a torn or unlinked
//!   snapshot. Orphaned `snapshot.json.tmp` files from a crash between
//!   write and rename are removed on startup.
//! * `journal.jsonl` — one `{"mutation":{...},"seq":N}` line per
//!   accepted mutation since the last cut, in canonical
//!   [`crate::proto::mutation_to_json`] form, written whole-line to the
//!   OS through an append-mode handle. The writer appends *after*
//!   applying and *before* replying, so every acknowledged mutation is
//!   durable.
//! * `journal.prev.jsonl` — the journal as it stood at the last cut,
//!   while the snapshot that covers it is in flight.
//!
//! The store is split in two halves. [`Store`], the journal half, is
//! owned by the daemon's writer: it appends and, at each cut, rotates.
//! [`Snapshotter`], the snapshot half (the directory plus the shared
//! [`FaultInjector`]), writes snapshot documents and runs on the
//! daemon's persistence thread.
//!
//! **Rotation and retirement.** At a cut at seq k the writer renames
//! `journal.jsonl` to `journal.prev.jsonl` and opens a fresh journal
//! ([`Store::rotate`]), then takes the cut of the state at k. Lines past the cut
//! go to the fresh journal while the snapshot is in flight. Once the
//! snapshot at k is durable (after the rename and the directory fsync),
//! the snapshotter retires the rotated lines by unlinking
//! `journal.prev.jsonl`: every line in it is at or below k. A
//! `journal.prev.jsonl` still present at a cut means an earlier
//! snapshot or retirement failed; that cut does not rotate, and the
//! next durable snapshot removes the file. A crash or a failure before
//! the unlink leaves covered lines behind; recovery reads their `seq`
//! and passes over them without decoding the mutation. With failures
//! isolated, the two files hold at most the lines of the interval being
//! appended, the one before it and one failed interval. Deleting
//! `snapshot.json` by hand after a retirement leaves a journal that
//! starts past seq 1: its replay is refused as drift, and an empty one
//! resumes as a fresh model.
//!
//! Recovery (`--resume`) loads the snapshot (if any), then replays the
//! lines of `journal.prev.jsonl` and then `journal.jsonl` with
//! `seq > snapshot.seq`. It costs one snapshot load plus a bounded
//! number of lines, whatever the uptime. The
//! snapshot is read once: the envelope's pull reader
//! ([`fcm_substrate::json::Reader`]) runs the state decoder's read
//! phase in place where it meets `"state"`, and the decoder builds the
//! model only once the envelope has passed its checks. The build
//! rebuilds the matrix from the edges and refuses a state whose
//! `influence` section (a v1 snapshot's) differs from it. There is one
//! path from a state directory to a model, [`read_recovered`] then
//! [`Recovered::into_model`]: `--resume`, the degraded-mode rollback,
//! the crash matrix and the recovery benches all take it. Every seq on
//! disk (the envelope's, the state's and each journal line's) must be a
//! non-negative integer, and the envelope's must equal the state's;
//! anything else is refused, since a wrong base seq would pass over
//! journal lines the snapshot does not cover.
//!
//! A *torn tail* — a final journal segment with no trailing newline, the
//! only artefact a mid-write crash can leave — is silently dropped
//! (crash-consistent: its mutation was never acknowledged), and in
//! `journal.jsonl` truncated away; the repair reads the journal back
//! from its end only as far as its last newline. A newline-*terminated*
//! line that fails to parse is real corruption and is reported with its
//! file and line number (exit-code-2 class). Mutations are
//! deterministic functions of model state, so replay reconstructs the
//! crashed model byte-identically — `scripts/verify.sh` pins this with
//! a `dump` byte-compare against a straight-through run, and
//! `crashdrill` pins it at every enumerated IO site.
//!
//! ## IO-site catalog
//!
//! | site | half | operation |
//! |---|---|---|
//! | `journal.append.write` | journal | one whole journal line to the OS |
//! | `journal.append.flush` | journal | flush of the journal handle |
//! | `journal.probe` | journal | re-arm probe: repair torn tail, reopen append |
//! | `journal.rotate` | journal | rename to `journal.prev.jsonl`, open a fresh journal |
//! | `snapshot.tmp.write` | snapshot | snapshot document into `snapshot.json.tmp` |
//! | `snapshot.tmp.fsync` | snapshot | fsync of the temp file before rename |
//! | `snapshot.rename` | snapshot | atomic rename onto `snapshot.json` |
//! | `snapshot.dir.fsync` | snapshot | fsync of the state directory after rename |
//! | `journal.retire` | snapshot | unlink of `journal.prev.jsonl` once the snapshot is durable |
//!
//! Every site consults the shared [`FaultInjector`] first; the
//! production plan is [`FaultPlan::none`], whose passive path is a
//! single bool load. Injected failures return
//! `"injected <kind> at <site>"` errors; torn kinds first write a
//! strict prefix of the data, which is exactly the on-disk state the
//! torn-tail rule above recovers from. A failed rotation or retirement
//! is not an error: the snapshot still covers what it covers, and the
//! lines stay until a later cut retires them.
//!
//! The only wall-clock read in the crate is the snapshot metadata
//! timestamp (`written_unix_ms`); it is deliberately *outside* the
//! `state` object so state comparisons stay byte-exact.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

use fcm_substrate::fault::{Fault, FaultInjector, FaultKind, FaultPlan};
use fcm_substrate::json::{write_escaped, write_num, Reader};
use fcm_substrate::Json;

use crate::model::{as_count, LiveModel, StateCut, StateRead};
use crate::proto::{self, Mutation};

/// Snapshot-file schema tag.
pub const SNAPSHOT_SCHEMA: &str = "fcm-serve-snapshot/v1";

const SNAPSHOT: &str = "snapshot.json";
const SNAPSHOT_TMP: &str = "snapshot.json.tmp";
const JOURNAL: &str = "journal.jsonl";
const JOURNAL_PREV: &str = "journal.prev.jsonl";

/// The journal half of an open state directory: the journal writer and
/// the fault injector every write-path operation consults. Its
/// [`Snapshotter`] is the snapshot half.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    /// The append handle; `None` once a rotation renamed the journal
    /// but could not open a fresh one, until a probe reopens it.
    journal: Option<File>,
    inj: Arc<FaultInjector>,
}

/// The snapshot half of a state directory: writes snapshot documents
/// and retires the rotated journal. Cloned out of a [`Store`], it
/// shares the store's injector, so one plan covers both halves.
#[derive(Debug, Clone)]
pub struct Snapshotter {
    dir: PathBuf,
    inj: Arc<FaultInjector>,
}

/// What resume recovered from disk; [`Recovered::into_model`] turns it
/// into the model.
#[derive(Debug)]
pub struct Recovered {
    /// The snapshot's model, decoded and checked, when a snapshot
    /// existed; its seq is the snapshot's.
    snapshot: Option<LiveModel>,
    /// Journal suffix to replay: `(seq, mutation)` with seq ascending,
    /// already filtered to entries newer than the snapshot.
    replay: Vec<(u64, Mutation)>,
}

impl Recovered {
    /// The seq of the snapshot, when there is one.
    #[must_use]
    pub fn snapshot_seq(&self) -> Option<u64> {
        self.snapshot.as_ref().map(LiveModel::seq)
    }

    /// How many journal lines the replay applies.
    #[must_use]
    pub fn replay_len(&self) -> usize {
        self.replay.len()
    }

    /// The recovered model: the snapshot's, or a fresh `name` model when
    /// there is no snapshot, with the journal suffix replayed onto it.
    ///
    /// # Errors
    ///
    /// The snapshot holds another model than `name`, a replayed
    /// mutation is rejected, or a replayed line's seq is not the next
    /// one (drift).
    pub fn into_model(self, name: &str) -> Result<LiveModel, String> {
        let mut model = match self.snapshot {
            Some(model) => model,
            None => LiveModel::new(name)?,
        };
        if model.name() != name {
            return Err(format!(
                "state dir holds model \"{}\" but \"{}\" was requested",
                model.name(),
                name
            ));
        }
        for (seq, m) in &self.replay {
            model
                .apply(m)
                .map_err(|e| format!("journal replay seq {seq} rejected: {e}"))?;
            if model.seq() != *seq {
                return Err(format!(
                    "journal replay drift: expected seq {seq}, model at {}",
                    model.seq()
                ));
            }
        }
        Ok(model)
    }
}

fn io_err(what: &str, path: &Path, e: &std::io::Error) -> String {
    format!("{what} {}: {e}", path.display())
}

/// Outcome of a fault-site decision: proceed, or fail with this error
/// (after `torn` prefix bytes of a write-class payload were transferred).
fn injected_err(kind: FaultKind, site: &str) -> String {
    format!("injected {} at {site}", kind.token())
}

impl Store {
    /// Creates/truncates the state directory for a fresh run, with
    /// fault injection disabled ([`FaultPlan::none`]).
    ///
    /// # Errors
    ///
    /// Directory creation or journal-open failure (exit-code-2 class).
    pub fn create_fresh(dir: &Path) -> Result<Store, String> {
        Store::create_fresh_with(dir, Arc::new(FaultInjector::new(&FaultPlan::none())))
    }

    /// [`Store::create_fresh`] with an explicit injector.
    ///
    /// # Errors
    ///
    /// Directory creation or journal-open failure (exit-code-2 class).
    pub fn create_fresh_with(dir: &Path, inj: Arc<FaultInjector>) -> Result<Store, String> {
        fs::create_dir_all(dir).map_err(|e| io_err("create state dir", dir, &e))?;
        remove_orphan_tmp(dir)?;
        for stale in [SNAPSHOT, JOURNAL_PREV] {
            let path = dir.join(stale);
            if path.exists() {
                fs::remove_file(&path).map_err(|e| io_err("remove stale", &path, &e))?;
            }
        }
        let jpath = dir.join(JOURNAL);
        let journal = open_journal(&jpath).map_err(|e| io_err("create journal", &jpath, &e))?;
        journal
            .set_len(0)
            .map_err(|e| io_err("create journal", &jpath, &e))?;
        Ok(Store {
            dir: dir.to_path_buf(),
            journal: Some(journal),
            inj,
        })
    }

    /// Opens an existing state directory with fault injection disabled,
    /// returning the snapshot's model and the journal suffix that
    /// survive ([`read_recovered`]); a torn journal tail is truncated
    /// away and the journal reopened for append.
    ///
    /// # Errors
    ///
    /// Unreadable/corrupt snapshot or journal, or journal-open failure.
    pub fn open_resume(dir: &Path) -> Result<(Store, Recovered), String> {
        Store::open_resume_with(dir, Arc::new(FaultInjector::new(&FaultPlan::none())))
    }

    /// [`Store::open_resume`] with an explicit injector. Recovery reads
    /// are never gated — resume must work on the post-crash disk image.
    ///
    /// # Errors
    ///
    /// Unreadable/corrupt snapshot or journal, or journal-open failure.
    pub fn open_resume_with(
        dir: &Path,
        inj: Arc<FaultInjector>,
    ) -> Result<(Store, Recovered), String> {
        fs::create_dir_all(dir).map_err(|e| io_err("create state dir", dir, &e))?;
        remove_orphan_tmp(dir)?;
        let recovered = read_recovered(dir)?;
        let jpath = dir.join(JOURNAL);
        truncate_torn_tail(&jpath)?;
        let journal = open_journal(&jpath).map_err(|e| io_err("append journal", &jpath, &e))?;
        Ok((
            Store {
                dir: dir.to_path_buf(),
                journal: Some(journal),
                inj,
            },
            recovered,
        ))
    }

    /// The injector this store consults (for counters and crash latch).
    #[must_use]
    pub fn injector(&self) -> &Arc<FaultInjector> {
        &self.inj
    }

    /// The state directory this store persists into.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The snapshot half of this store, for the persistence thread.
    #[must_use]
    pub fn snapshotter(&self) -> Snapshotter {
        Snapshotter {
            dir: self.dir.clone(),
            inj: Arc::clone(&self.inj),
        }
    }

    /// Appends one accepted mutation as a whole line and flushes it to
    /// the OS before the caller acknowledges the client.
    ///
    /// # Errors
    ///
    /// Journal write failure (real or injected) — the daemon responds
    /// by entering degraded mode, not by dying.
    pub fn append(&mut self, seq: u64, m: &Mutation) -> Result<(), String> {
        let mut line = Json::object()
            .set("mutation", proto::mutation_to_json(m))
            .set("seq", seq)
            .to_string_compact();
        line.push('\n');
        let jpath = self.dir.join(JOURNAL);
        let journal = self
            .journal
            .as_mut()
            .ok_or_else(|| format!("append journal {}: not open", jpath.display()))?;
        let site = "journal.append.write";
        match self.inj.hit(site) {
            Fault::Pass => journal
                .write_all(line.as_bytes())
                .map_err(|e| io_err("append journal", &jpath, &e))?,
            Fault::Fail(kind) => {
                if kind.is_torn() {
                    let _ = journal.write_all(&line.as_bytes()[..line.len() / 2]);
                    let _ = journal.flush();
                }
                note_injection();
                return Err(injected_err(kind, site));
            }
        }
        gated(&self.inj, "journal.append.flush", || {
            journal
                .flush()
                .map_err(|e| io_err("flush journal", &jpath, &e))
        })
    }

    /// Re-arm probe after a journal failure: verifies the injector (and
    /// disk) will accept journal writes again, repairs any torn tail
    /// the failure left (truncate to the last complete line), and
    /// reopens the append handle.
    ///
    /// # Errors
    ///
    /// The fault is still armed, or the repair itself fails.
    pub fn probe(&mut self) -> Result<(), String> {
        gated(&self.inj, "journal.probe", || Ok(()))?;
        let jpath = self.dir.join(JOURNAL);
        truncate_torn_tail(&jpath)?;
        self.journal =
            Some(open_journal(&jpath).map_err(|e| io_err("append journal", &jpath, &e))?);
        Ok(())
    }

    /// The cut's journal step: renames `journal.jsonl` to
    /// `journal.prev.jsonl` and opens a fresh journal, so lines past the
    /// cut never land in the file the snapshot retires. Returns whether
    /// it rotated: a `journal.prev.jsonl` left by an earlier failed
    /// snapshot or retirement stays, and this cut does not rotate. The
    /// caller must not rotate while a snapshot is in flight.
    ///
    /// # Errors
    ///
    /// The rename or the fresh open failed. After a failed rename the
    /// journal is as it was; after a failed open appends fail until
    /// [`Store::probe`] reopens the journal, so no line is written into
    /// the rotated file.
    pub fn rotate(&mut self) -> Result<bool, String> {
        let prev = self.dir.join(JOURNAL_PREV);
        if prev.exists() {
            return Ok(false);
        }
        let jpath = self.dir.join(JOURNAL);
        gated(&self.inj, "journal.rotate", || {
            fs::rename(&jpath, &prev).map_err(|e| io_err("rotate journal", &jpath, &e))
        })?;
        self.journal = None;
        self.journal =
            Some(open_journal(&jpath).map_err(|e| io_err("rotate journal", &jpath, &e))?);
        Ok(true)
    }

    /// Writes a snapshot of `state` at `seq`; see
    /// [`Store::snapshot_text`].
    ///
    /// # Errors
    ///
    /// Temp-file write, fsync, or rename failure.
    pub fn snapshot(&mut self, seq: u64, state: &Json) -> Result<(), String> {
        self.snapshot_text(seq, &state.to_string_compact())
    }

    /// A whole cut on the calling thread: rotates the journal
    /// ([`Store::rotate`]), wraps the compact state text `state` (as
    /// [`crate::LiveModel::state_text`] returns it) in the snapshot
    /// envelope at `seq`, and writes it through [`Snapshotter::write`].
    /// The caller snapshots the state of its last appended line, so the
    /// snapshot covers every rotated line. A failed rotation is not an
    /// error: the lines stay in the journal, covered, until a later cut.
    ///
    /// # Errors
    ///
    /// Temp-file write, fsync, or rename failure.
    pub fn snapshot_text(&mut self, seq: u64, state: &str) -> Result<(), String> {
        let _ = self.rotate();
        self.snapshotter()
            .write(&envelope(seq, state.len(), |out| out.push_str(state)))
    }
}

impl Snapshotter {
    /// Writes the snapshot document of `cut` without building it whole:
    /// the envelope and the edges are rendered into one buffer that is
    /// written out and cleared at each of the cut's rendered sections
    /// (contracts, FCM records), which are written as they are. The
    /// bytes are those of
    /// [`Store::snapshot_text`] of the cut model's `state_text`. See
    /// [`Snapshotter::write`].
    ///
    /// # Errors
    ///
    /// Temp-file write, fsync, or rename failure.
    pub fn write_cut(&self, cut: &StateCut) -> Result<(), String> {
        self.write_with(|emit| {
            let mut buf = String::with_capacity(cut.capacity() / 2);
            envelope_head(&mut buf, cut.seq());
            cut.stream(&mut buf, emit);
            envelope_tail(&mut buf);
            emit(&buf);
        })
    }

    /// Writes the snapshot document `doc`: temp file + fsync + atomic
    /// rename + parent-directory fsync. Once the snapshot is durable the
    /// rotated journal is retired (unlinked). A failed retirement is not
    /// an error: the snapshot is durable, resume passes over the covered
    /// lines, and the next durable snapshot retires them.
    ///
    /// # Errors
    ///
    /// Temp-file write, fsync, or rename failure.
    pub fn write(&self, doc: &str) -> Result<(), String> {
        self.write_with(|emit| emit(doc))
    }

    /// [`Snapshotter::write`] of the document `doc` hands its `emit`
    /// piece by piece. A torn fault writes half of the first piece.
    fn write_with(&self, doc: impl FnOnce(&mut dyn FnMut(&str))) -> Result<(), String> {
        let tmp = self.dir.join(SNAPSHOT_TMP);
        let fin = self.dir.join(SNAPSHOT);

        let mut tmp_file = File::create(&tmp).map_err(|e| io_err("write snapshot", &tmp, &e))?;
        let site = "snapshot.tmp.write";
        match self.inj.hit(site) {
            Fault::Pass => {
                let mut written = Ok(());
                doc(&mut |piece| {
                    if written.is_ok() {
                        written = tmp_file.write_all(piece.as_bytes());
                    }
                });
                written.map_err(|e| io_err("write snapshot", &tmp, &e))?;
            }
            Fault::Fail(kind) => {
                if kind.is_torn() {
                    let mut first = true;
                    doc(&mut |piece| {
                        if std::mem::take(&mut first) {
                            let _ = tmp_file.write_all(&piece.as_bytes()[..piece.len() / 2]);
                        }
                    });
                }
                note_injection();
                return Err(injected_err(kind, site));
            }
        }
        gated(&self.inj, "snapshot.tmp.fsync", || {
            tmp_file
                .sync_all()
                .map_err(|e| io_err("fsync snapshot", &tmp, &e))
        })?;
        drop(tmp_file);
        gated(&self.inj, "snapshot.rename", || {
            fs::rename(&tmp, &fin).map_err(|e| io_err("rename snapshot", &fin, &e))
        })?;
        gated(&self.inj, "snapshot.dir.fsync", || {
            File::open(&self.dir)
                .and_then(|d| d.sync_all())
                .map_err(|e| io_err("fsync state dir", &self.dir, &e))
        })?;
        let prev = self.dir.join(JOURNAL_PREV);
        let _ = gated(&self.inj, "journal.retire", || {
            match fs::remove_file(&prev) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    Err(io_err("retire journal", &prev, &e))
                }
                _ => Ok(()),
            }
        });
        Ok(())
    }
}

/// The snapshot envelope at `seq` around the state `state` writes, in a
/// buffer sized for a state of about `state_len` bytes.
fn envelope(seq: u64, state_len: usize, state: impl FnOnce(&mut String)) -> String {
    let mut doc = String::with_capacity(state_len + 128);
    envelope_head(&mut doc, seq);
    state(&mut doc);
    envelope_tail(&mut doc);
    doc
}

/// The envelope up to its state: the keys are in the sorted order a
/// `Json` object emits them.
fn envelope_head(out: &mut String, seq: u64) {
    out.push_str("{\"schema\":");
    write_escaped(out, SNAPSHOT_SCHEMA);
    out.push_str(",\"seq\":");
    write_num(out, seq as f64);
    out.push_str(",\"state\":");
}

/// The envelope after its state.
fn envelope_tail(out: &mut String) {
    let written_unix_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64);
    out.push_str(",\"written_unix_ms\":");
    write_num(out, written_unix_ms as f64);
    out.push_str("}\n");
}

/// A non-byte operation (fsync/rename/unlink) through the injector.
fn gated(
    inj: &FaultInjector,
    site: &str,
    op: impl FnOnce() -> Result<(), String>,
) -> Result<(), String> {
    match inj.hit(site) {
        Fault::Pass => op(),
        Fault::Fail(kind) => {
            note_injection();
            Err(injected_err(kind, site))
        }
    }
}

fn note_injection() {
    fcm_obs::counter_add("serve.faults_injected", 1);
}

/// Removes a `snapshot.json.tmp` orphaned by a crash between temp write
/// and rename.
fn remove_orphan_tmp(dir: &Path) -> Result<(), String> {
    let tmp = dir.join(SNAPSHOT_TMP);
    if tmp.exists() {
        fs::remove_file(&tmp).map_err(|e| io_err("remove orphan snapshot tmp", &tmp, &e))?;
    }
    Ok(())
}

/// Opens (creating) the journal for appending. Append mode puts every
/// write at the end of the file, wherever a retirement or a repair left
/// it, so no write lands past the end and leaves a hole.
fn open_journal(jpath: &Path) -> std::io::Result<File> {
    OpenOptions::new().create(true).append(true).open(jpath)
}

/// Bytes read per step while looking back from the journal's end for its
/// last newline.
const TAIL_BLOCK: u64 = 4096;

/// Physically truncates a torn (newline-less) final segment so appends
/// continue from a complete line. Reads back from the end of the file
/// only as far as its last newline.
fn truncate_torn_tail(jpath: &Path) -> Result<(), String> {
    if !jpath.exists() {
        return Ok(());
    }
    let err = |e: std::io::Error| io_err("repair journal", jpath, &e);
    let mut f = OpenOptions::new()
        .read(true)
        .write(true)
        .open(jpath)
        .map_err(err)?;
    let len = f.metadata().map_err(err)?.len();
    if len == 0 {
        return Ok(());
    }
    let mut end = len;
    let mut buf = [0u8; TAIL_BLOCK as usize];
    let keep = loop {
        if end == 0 {
            break 0;
        }
        let start = end.saturating_sub(TAIL_BLOCK);
        let block = &mut buf[..(end - start) as usize];
        f.seek(SeekFrom::Start(start)).map_err(err)?;
        f.read_exact(block).map_err(err)?;
        if end == len && block.last() == Some(&b'\n') {
            return Ok(());
        }
        if let Some(p) = block.iter().rposition(|&b| b == b'\n') {
            break start + p as u64 + 1;
        }
        end = start;
    };
    f.set_len(keep).map_err(err)?;
    f.sync_all().map_err(err)
}

/// Read-only recovery of the durable state in `dir`: the snapshot's
/// model plus the replayable journal suffix, from `journal.prev.jsonl`
/// and then `journal.jsonl`. Never writes — this is also the rollback
/// path the writer uses when entering degraded mode on a possibly
/// failing disk, once no snapshot is in flight. In each journal file a
/// torn final segment (no trailing newline) is dropped silently; a
/// newline-terminated unparseable line is an error.
///
/// # Errors
///
/// Unreadable/corrupt snapshot, or mid-file journal corruption (with
/// file and line number).
pub fn read_recovered(dir: &Path) -> Result<Recovered, String> {
    let snap_path = dir.join(SNAPSHOT);
    let snapshot = if snap_path.exists() {
        let text =
            fs::read_to_string(&snap_path).map_err(|e| io_err("read snapshot", &snap_path, &e))?;
        Some(read_snapshot(&text)?)
    } else {
        None
    };
    let base_seq = snapshot.as_ref().map_or(0, LiveModel::seq);
    let mut replay = Vec::new();
    for name in [JOURNAL_PREV, JOURNAL] {
        read_journal(dir, name, base_seq, &mut replay)?;
    }
    replay.sort_by_key(|&(s, _)| s);
    Ok(Recovered { snapshot, replay })
}

/// Appends the lines of journal file `name` above `base_seq` to
/// `replay`. Errors name the file.
fn read_journal(
    dir: &Path,
    name: &str,
    base_seq: u64,
    replay: &mut Vec<(u64, Mutation)>,
) -> Result<(), String> {
    let path = dir.join(name);
    if !path.exists() {
        return Ok(());
    }
    let bytes = fs::read(&path).map_err(|e| io_err("read journal", &path, &e))?;
    // Only complete (newline-terminated) lines are journal entries; a
    // trailing newline-less segment is the torn tail of a crashed
    // append and carries an unacknowledged mutation — drop it.
    let complete = match bytes.iter().rposition(|&b| b == b'\n') {
        Some(p) => &bytes[..=p],
        None => &[][..],
    };
    let text = std::str::from_utf8(complete)
        .map_err(|e| format!("{name}: corrupt journal (not UTF-8): {e}"))?;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = format!("{name}: journal line {}", lineno + 1);
        let entry = Json::parse(line)
            .map_err(|e| format!("{name}: corrupt journal line {}: {e}", lineno + 1))?;
        let seq = entry
            .get("seq")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{at} missing \"seq\""))?;
        let seq =
            as_count(seq).ok_or_else(|| format!("{at} seq {seq} is not a non-negative integer"))?;
        // A line the snapshot covers, left by a retirement that did not
        // happen: its mutation is never decoded.
        if seq <= base_seq {
            continue;
        }
        let m = entry
            .get("mutation")
            .ok_or_else(|| format!("{at} missing \"mutation\""))?;
        let mutation = proto::mutation_from_json(m).map_err(|e| format!("{at}: {e}"))?;
        replay.push((seq, mutation));
    }
    Ok(())
}

/// The model a snapshot file's text holds. The envelope is read with a
/// pull reader that checks the whole file as [`Json::parse`] would, and
/// the state is read in place by the state decoder's read phase, so a
/// syntax error anywhere is reported at its offset in the file. The
/// model is built only after the envelope's checks, in the order: the
/// syntax, the schema, the seq, the state's presence, the state itself,
/// then that the envelope's seq is the state's.
fn read_snapshot(text: &str) -> Result<LiveModel, String> {
    let corrupt = |e: String| format!("corrupt snapshot: {e}");
    let mut r = Reader::new(text);
    let (mut schema, mut seq, mut state) = (None, None, None);
    if r.peek() == Some(b'{') {
        r.begin_object().map_err(corrupt)?;
        while let Some(key) = r.next_key().map_err(corrupt)? {
            match &*key {
                "schema" => schema = Some(r.value().map_err(corrupt)?),
                "seq" => seq = Some(r.value().map_err(corrupt)?),
                "state" => state = Some(StateRead::read(&mut r).map_err(corrupt)?),
                _ => r.skip().map_err(corrupt)?,
            }
        }
    } else {
        r.skip().map_err(corrupt)?;
    }
    r.finish().map_err(corrupt)?;
    if schema.as_ref().and_then(Json::as_str) != Some(SNAPSHOT_SCHEMA) {
        return Err(format!("snapshot is not {SNAPSHOT_SCHEMA}"));
    }
    let seq = seq
        .as_ref()
        .and_then(Json::as_f64)
        .ok_or("snapshot missing \"seq\"")?;
    let seq =
        as_count(seq).ok_or_else(|| format!("snapshot seq {seq} is not a non-negative integer"))?;
    let model = state.ok_or("snapshot missing \"state\"")?.build()?;
    if model.seq() != seq {
        return Err(format!(
            "snapshot seq {seq} differs from its state's seq {}",
            model.seq()
        ));
    }
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LiveModel;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("fcm-serve-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn ops() -> [Mutation; 3] {
        [
            Mutation::SetAttr {
                name: "p8".to_string(),
                criticality: Some(2),
                throughput: None,
                timing: None,
            },
            Mutation::FailNode {
                node: "hw2".to_string(),
            },
            Mutation::RestoreNode {
                node: "hw2".to_string(),
            },
        ]
    }

    #[test]
    fn fresh_then_resume_replays_the_suffix() {
        let dir = tmpdir("replay");
        let mut model = LiveModel::new("paper").unwrap();
        let mut store = Store::create_fresh(&dir).unwrap();
        for (i, m) in ops().iter().enumerate() {
            model.apply(m).unwrap();
            store.append(model.seq(), m).unwrap();
            if i == 0 {
                store.snapshot(model.seq(), &model.state_json()).unwrap();
            }
        }
        drop(store);

        let (_store2, rec) = Store::open_resume(&dir).unwrap();
        assert_eq!(rec.snapshot_seq(), Some(1));
        assert_eq!(rec.replay_len(), 2, "only the post-snapshot suffix");
        let recovered = rec.into_model("paper").unwrap();
        assert_eq!(
            recovered.state_text(),
            model.state_text(),
            "replayed model is byte-identical"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_journal_lines_are_reported_with_position() {
        let dir = tmpdir("corrupt");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("journal.jsonl"), "{\"seq\":1,\"mutation\"\n").unwrap();
        let err = Store::open_resume(&dir).unwrap_err();
        assert!(err.contains("journal line 1"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_line_is_dropped_and_truncated() {
        let dir = tmpdir("torn");
        let mut model = LiveModel::new("paper").unwrap();
        let mut store = Store::create_fresh(&dir).unwrap();
        let m = &ops()[0];
        model.apply(m).unwrap();
        store.append(model.seq(), m).unwrap();
        drop(store);
        // Simulate a crash mid-append: half of a second line.
        let jpath = dir.join("journal.jsonl");
        let mut f = OpenOptions::new().append(true).open(&jpath).unwrap();
        f.write_all(b"{\"mutation\":{\"op\":\"fail_no").unwrap();
        drop(f);

        let (_store2, rec) = Store::open_resume(&dir).unwrap();
        assert_eq!(rec.replay.len(), 1, "torn tail dropped");
        let bytes = fs::read(&jpath).unwrap();
        assert!(bytes.ends_with(b"\n"), "tail physically truncated");
        assert_eq!(
            bytes.iter().filter(|&&b| b == b'\n').count(),
            1,
            "exactly the complete line survives"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphan_snapshot_tmp_is_cleaned_on_startup() {
        let dir = tmpdir("orphan");
        fs::create_dir_all(&dir).unwrap();
        let tmp = dir.join("snapshot.json.tmp");
        fs::write(&tmp, "{half a snapsh").unwrap();
        let _ = Store::open_resume(&dir).unwrap();
        assert!(!tmp.exists(), "orphan tmp removed on resume");
        fs::write(&tmp, "{half a snapsh").unwrap();
        let _ = Store::create_fresh(&dir).unwrap();
        assert!(!tmp.exists(), "orphan tmp removed on fresh start");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_faults_fail_the_gated_sites() {
        let dir = tmpdir("inject");
        let plan = FaultPlan::parse("journal.append.write:short@1").unwrap();
        let inj = Arc::new(FaultInjector::new(&plan));
        let mut model = LiveModel::new("paper").unwrap();
        let mut store = Store::create_fresh_with(&dir, Arc::clone(&inj)).unwrap();
        let all = ops();
        model.apply(&all[0]).unwrap();
        store.append(model.seq(), &all[0]).unwrap();
        model.apply(&all[1]).unwrap();
        let err = store.append(model.seq(), &all[1]).unwrap_err();
        assert!(
            err.contains("injected short at journal.append.write"),
            "{err}"
        );
        assert_eq!(inj.injected(), 1);
        // The short write left a torn tail; recovery sees only line 1.
        let rec = read_recovered(&dir).unwrap();
        assert_eq!(rec.replay.len(), 1);
        // The probe repairs the tail and appends succeed again.
        store.probe().unwrap();
        store.append(2, &all[1]).unwrap();
        let rec = read_recovered(&dir).unwrap();
        assert_eq!(rec.replay.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_tree_and_text_snapshots_write_the_same_document() {
        let dir = tmpdir("text");
        let mut model = LiveModel::new("paper").unwrap();
        model.apply(&ops()[1]).unwrap();
        let mut store = Store::create_fresh(&dir).unwrap();
        // The file up to its wall-clock stamp, the one byte range that
        // differs between two snapshots of one state.
        let unstamped = || {
            let text = fs::read_to_string(dir.join(SNAPSHOT)).unwrap();
            let stamp = text.rfind(",\"written_unix_ms\":").expect("stamped");
            text[..stamp].to_string()
        };
        let state = model.state_text();
        store
            .snapshot(model.seq(), &Json::parse(&state).unwrap())
            .unwrap();
        let tree = unstamped();
        store.snapshot_text(model.seq(), &state).unwrap();
        assert_eq!(unstamped(), tree);
        let loaded = read_recovered(&dir).unwrap().snapshot.unwrap();
        assert_eq!(loaded.seq(), 1);
        assert_eq!(loaded.state_text(), state);
        // A tree with the derived matrix loads to the same model.
        store.snapshot(model.seq(), &model.state_json()).unwrap();
        let loaded = read_recovered(&dir).unwrap().snapshot.unwrap();
        assert_eq!(loaded.state_json(), model.state_json());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_streamed_cut_writes_the_same_document() {
        let dir = tmpdir("cut");
        let mut model = LiveModel::new("paper").unwrap();
        let (_, add) = proto::parse_line(
            r#"{"op":"add_fcm","name":"c1","criticality":1,"influences":[["p8",0.3]],"contract":{"guarantee":0.9,"rely":0.5,"floor":0}}"#,
        );
        let Ok(crate::proto::Request::Mutation(add)) = add else {
            panic!("add_fcm with a contract is a mutation")
        };
        for m in [add, ops()[1].clone()] {
            model.apply(&m).unwrap();
        }
        let mut store = Store::create_fresh(&dir).unwrap();
        let unstamped = || {
            let text = fs::read_to_string(dir.join(SNAPSHOT)).unwrap();
            let stamp = text.rfind(",\"written_unix_ms\":").expect("stamped");
            text[..stamp].to_string()
        };
        store
            .snapshot_text(model.seq(), &model.state_text())
            .unwrap();
        let text = unstamped();
        assert!(text.contains("\"contracts\":"), "{text}");
        store.snapshotter().write_cut(&model.state_cut()).unwrap();
        assert_eq!(unstamped(), text);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The paper model with `ops()` applied and journaled through
    /// `store`, snapshotting after the `snap_at`-th.
    fn journaled(store: &mut Store, snap_at: usize) -> LiveModel {
        let mut model = LiveModel::new("paper").unwrap();
        for (i, m) in ops().iter().enumerate() {
            model.apply(m).unwrap();
            store.append(model.seq(), m).unwrap();
            if i + 1 == snap_at {
                store
                    .snapshot_text(model.seq(), &model.state_text())
                    .unwrap();
            }
        }
        model
    }

    fn journal_bytes(dir: &Path) -> Vec<u8> {
        fs::read(dir.join(JOURNAL)).unwrap()
    }

    #[test]
    fn a_snapshot_retires_the_journal_and_appends_restart_at_offset_0() {
        let dir = tmpdir("retire");
        let mut store = Store::create_fresh(&dir).unwrap();
        let model = journaled(&mut store, 2);
        // Line 3 alone: the snapshot at seq 2 retired lines 1 and 2, and
        // the next append landed at offset 0, not past a hole.
        let journal = journal_bytes(&dir);
        assert!(!journal.contains(&0), "NUL hole in {journal:?}");
        assert_eq!(String::from_utf8(journal).unwrap().lines().count(), 1);
        drop(store);
        let (mut store, rec) = Store::open_resume(&dir).unwrap();
        assert_eq!(rec.snapshot_seq(), Some(2));
        assert_eq!(rec.replay.len(), 1);
        // A resumed store retires and appends the same way.
        store
            .snapshot_text(model.seq(), &model.state_text())
            .unwrap();
        assert!(journal_bytes(&dir).is_empty());
        store.append(4, &ops()[0]).unwrap();
        let journal = journal_bytes(&dir);
        assert!(journal.starts_with(b"{\"mutation\""), "{journal:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// The seqs of the lines in journal file `name`, `None` when the
    /// file is absent.
    fn seqs_in(dir: &Path, name: &str) -> Option<Vec<u64>> {
        let text = fs::read_to_string(dir.join(name)).ok()?;
        Some(
            text.lines()
                .map(|l| {
                    let seq = Json::parse(l).unwrap().get("seq").and_then(Json::as_f64);
                    seq.unwrap() as u64
                })
                .collect(),
        )
    }

    #[test]
    fn a_failed_retirement_loses_nothing_and_the_next_snapshot_retries() {
        let dir = tmpdir("retire-fail");
        let inj = Arc::new(FaultInjector::new(
            &FaultPlan::parse("journal.retire:eio@0").unwrap(),
        ));
        let mut store = Store::create_fresh_with(&dir, Arc::clone(&inj)).unwrap();
        let model = journaled(&mut store, 3);
        assert_eq!(inj.injected(), 1, "the retirement failed");
        // The snapshot is durable and covers all three lines, which stay
        // in the rotated journal.
        let rec = read_recovered(&dir).unwrap();
        assert_eq!(rec.snapshot_seq(), Some(3));
        assert!(rec.replay.is_empty(), "covered lines are passed over");
        assert_eq!(
            rec.into_model("paper").unwrap().state_text(),
            model.state_text()
        );
        assert_eq!(seqs_in(&dir, JOURNAL_PREV), Some(vec![1, 2, 3]));
        assert_eq!(seqs_in(&dir, JOURNAL), Some(vec![]));
        // The next snapshot does not rotate over them, and retires them.
        store
            .snapshot_text(model.seq(), &model.state_text())
            .unwrap();
        assert_eq!(seqs_in(&dir, JOURNAL_PREV), None);
        assert_eq!(seqs_in(&dir, JOURNAL), Some(vec![]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_rotated_journal_replays_first_and_its_errors_name_it() {
        let dir = tmpdir("prev");
        let inj = Arc::new(FaultInjector::new(
            &FaultPlan::parse("snapshot.tmp.write:eio@0").unwrap(),
        ));
        let mut store = Store::create_fresh_with(&dir, inj).unwrap();
        // The cut at seq 2 rotates lines 1 and 2, and its snapshot fails.
        let mut model = LiveModel::new("paper").unwrap();
        for m in &ops() {
            model.apply(m).unwrap();
            store.append(model.seq(), m).unwrap();
            if model.seq() == 2 {
                let err = store.snapshot_text(2, &model.state_text()).unwrap_err();
                assert_eq!(err, "injected eio at snapshot.tmp.write");
            }
        }
        assert_eq!(seqs_in(&dir, JOURNAL_PREV), Some(vec![1, 2]));
        assert_eq!(seqs_in(&dir, JOURNAL), Some(vec![3]));
        let rec = read_recovered(&dir).unwrap();
        assert_eq!(rec.snapshot_seq(), None);
        assert_eq!(rec.replay_len(), 3);
        assert_eq!(
            rec.into_model("paper").unwrap().state_text(),
            model.state_text()
        );
        let mut prev = OpenOptions::new()
            .append(true)
            .open(dir.join(JOURNAL_PREV))
            .unwrap();
        prev.write_all(b"not json\n").unwrap();
        let err = read_recovered(&dir).unwrap_err();
        assert!(
            err.starts_with("journal.prev.jsonl: corrupt journal line 3: "),
            "{err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_crash_at_the_retirement_resumes_with_the_covered_lines_skipped() {
        let dir = tmpdir("retire-crash");
        let inj = Arc::new(FaultInjector::new(
            &FaultPlan::parse("journal.retire:crash").unwrap(),
        ));
        let mut store = Store::create_fresh_with(&dir, Arc::clone(&inj)).unwrap();
        let mut model = LiveModel::new("paper").unwrap();
        let all = ops();
        for m in &all[..2] {
            model.apply(m).unwrap();
            store.append(model.seq(), m).unwrap();
        }
        store
            .snapshot_text(model.seq(), &model.state_text())
            .unwrap();
        assert!(inj.crashed());
        // The process is dead: the next append never reaches the disk.
        model.apply(&all[2]).unwrap();
        assert!(store.append(model.seq(), &all[2]).is_err());
        drop(store);
        let (_store, rec) = Store::open_resume(&dir).unwrap();
        assert_eq!(rec.snapshot_seq(), Some(2));
        assert!(rec.replay.is_empty(), "lines 1 and 2 are covered");
        let mut at_2 = LiveModel::new("paper").unwrap();
        for m in &all[..2] {
            at_2.apply(m).unwrap();
        }
        assert_eq!(
            rec.into_model("paper").unwrap().state_text(),
            at_2.state_text()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// A run of `ops()` mutations with cuts at random points and one
    /// injected `eio` rule over a rotation, snapshot or retirement site.
    /// With `in_flight`, each cut's document is written only after the
    /// next mutation is appended, the way the persistence thread may
    /// finish while the writer appends lines past the cut.
    #[derive(Debug)]
    struct RetireCase {
        mutations: usize,
        snapshot_odds: f64,
        site: &'static str,
        from: u64,
        len: u64,
        in_flight: bool,
        seed: u64,
    }

    /// What the files must hold after a run of cuts. Lines at or below
    /// `floor` are retired, and `journal.prev.jsonl`, when present,
    /// holds the lines up to `rotated_at`. `durable` is the seq of the
    /// last snapshot that returned Ok (one that failed at the directory
    /// fsync was renamed into place already and may cover more), and
    /// `clean` that of the last clean cut: rotated, durable and retired
    /// with no fault.
    #[derive(Default)]
    struct Track {
        floor: u64,
        rotated_at: Option<u64>,
        durable: u64,
        clean: u64,
    }

    /// A cut not written yet: its seq, the cut, whether it rotated, and
    /// the injections counted before it.
    type Pending = (u64, StateCut, bool, u64);

    impl Track {
        /// Rotates and renders a cut of `model`.
        fn cut(&mut self, store: &mut Store, model: &LiveModel) -> Pending {
            let injected = store.injector().injected();
            let rotated = store.rotate() == Ok(true);
            if rotated {
                self.rotated_at = Some(model.seq());
            }
            (model.seq(), model.state_cut(), rotated, injected)
        }

        /// Writes a cut's document, as the persistence thread does.
        fn finish(&mut self, snapshotter: &Snapshotter, (seq, cut, rotated, injected): Pending) {
            let before = snapshotter.inj.injected();
            if snapshotter.write_cut(&cut).is_err() {
                return;
            }
            self.durable = seq;
            if snapshotter.inj.injected() == before {
                if let Some(r) = self.rotated_at.take() {
                    self.floor = r;
                }
                if rotated && injected == before {
                    self.clean = seq;
                }
            }
        }
    }

    #[test]
    fn the_journal_holds_only_what_the_last_retirement_left() {
        const SITES: [&str; 6] = [
            "journal.rotate",
            "snapshot.tmp.write",
            "snapshot.tmp.fsync",
            "snapshot.rename",
            "snapshot.dir.fsync",
            "journal.retire",
        ];
        fcm_substrate::prop::check(
            "the_journal_holds_only_what_the_last_retirement_left",
            fcm_substrate::prop::Config {
                cases: 32,
                max_size: 40,
                ..fcm_substrate::prop::Config::default()
            },
            |rng, size| RetireCase {
                mutations: size,
                snapshot_odds: rng.gen_range(0.1f64..0.6),
                site: SITES[rng.gen_range(0usize..SITES.len())],
                from: rng.gen_range(0u64..4),
                len: rng.gen_range(1u64..6),
                in_flight: rng.gen_bool(0.5),
                seed: rng.next_u64(),
            },
            |c| {
                let dir = tmpdir(&format!("retire-prop-{}", c.seed));
                let plan = format!("{}:eio@{}..{}", c.site, c.from, c.from + c.len);
                let inj = Arc::new(FaultInjector::new(&FaultPlan::parse(&plan).unwrap()));
                let mut store = Store::create_fresh_with(&dir, inj).unwrap();
                let snapshotter = store.snapshotter();
                let mut rng = fcm_substrate::Rng::seed_from_u64(c.seed);
                let mut model = LiveModel::new("paper").unwrap();
                let mut t = Track::default();
                let mut pending = None;
                for i in 0..c.mutations {
                    let m = &ops()[i % 3];
                    model.apply(m).unwrap();
                    store.append(model.seq(), m).unwrap();
                    // A cut in flight finishes after a line past it.
                    if let Some(p) = pending.take() {
                        t.finish(&snapshotter, p);
                    }
                    if rng.gen_bool(c.snapshot_odds) {
                        let p = t.cut(&mut store, &model);
                        if c.in_flight {
                            pending = Some(p);
                        } else {
                            t.finish(&snapshotter, p);
                        }
                    }
                    let seq = model.seq();
                    let want_prev = t.rotated_at.map(|r| (t.floor + 1..=r).collect());
                    fcm_substrate::prop_assert_eq!(seqs_in(&dir, JOURNAL_PREV), want_prev);
                    let upto = t.rotated_at.unwrap_or(t.floor);
                    let want: Vec<u64> = (upto + 1..=seq).collect();
                    fcm_substrate::prop_assert_eq!(seqs_in(&dir, JOURNAL), Some(want));
                    // Nothing at or below the last clean cut is held, and
                    // after one the files hold exactly the lines above
                    // the last durable snapshot.
                    fcm_substrate::prop_assert!(t.floor >= t.clean);
                    if t.clean == t.durable {
                        fcm_substrate::prop_assert_eq!(t.floor, t.durable);
                    }
                    let rec = read_recovered(&dir)?;
                    fcm_substrate::prop_assert!(rec.replay.len() as u64 <= seq - t.durable);
                    let resumed = rec.into_model("paper")?;
                    fcm_substrate::prop_assert_eq!(resumed.state_text(), model.state_text());
                }
                drop(store);
                let _ = fs::remove_dir_all(&dir);
                Ok(())
            },
        );
    }

    #[test]
    fn none_plan_store_snapshots_and_dir_are_fsynced() {
        let dir = tmpdir("fsync");
        let mut model = LiveModel::new("paper").unwrap();
        let mut store = Store::create_fresh(&dir).unwrap();
        let m = &ops()[0];
        model.apply(m).unwrap();
        store.append(model.seq(), m).unwrap();
        store.snapshot(model.seq(), &model.state_json()).unwrap();
        assert!(dir.join("snapshot.json").exists());
        assert!(!dir.join("snapshot.json.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
